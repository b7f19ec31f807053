//! Page encoding: how entries are packed into fixed-size disk pages.
//!
//! Layout of one page:
//!
//! ```text
//! [u16 entry_count][u64 checksum][varint prefix_len][prefix]
//! entry_count × [varint suffix_len][varint val_len][varint seq << 2 | kind][suffix][value]
//! [zero padding]
//! [offset array: entry_count × offset, entry 0's last, ending at the page end]
//! ```
//!
//! **The prefix.** A page stores once the longest prefix its keys share —
//! that of its first and last key, as they are sorted — and each entry
//! only the rest of its key, its suffix. A page of one entry stores its
//! whole key as the prefix and an empty suffix; a page whose keys share
//! nothing carries a one-byte zero prefix length. The ledger's keys are
//! 16-digit decimals and a page's keys span fewer than a hundred numbers,
//! so 13 bytes of each key are the page's: an entry takes 121 bytes and an
//! offset 2, and a 4 KiB page holds 33 entries
//! (1 + 13 + 33 × (121 + 2) = 4 073 of 4 086 bytes).
//!
//! Varints are LEB128: seven bits a byte, low bits first, the high bit set
//! on every byte but the last. The third one packs the kind into the low
//! two bits of the sequence number; kinds 2 and 3 do not exist, so a bad
//! kind is still caught. An entry's header is 3 to 18 bytes: 3 + 5 + 10 for
//! a `u16` suffix length, a `u32` value length and a full 64-bit sequence
//! number. The ledger's 128-byte entries carry 6 against the logical
//! [`ENTRY_HEADER_LEN`] of 15.
//!
//! Entry `i`'s offset (where its header starts) sits `i + 1` slots before
//! the end of the page. A slot is a `u16` on pages up to 64 KiB and a `u32`
//! above: the page size picks the width, nothing configures it. One slot
//! per entry, not one per restart interval: at 2 bytes an entry, a restart
//! every second entry would save a single slot's worth of entries on the
//! ledger's page while making search decode entries the offsets let it
//! skip.
//!
//! **Capacity counts logical bytes.** Only pages see this encoding: every
//! capacity count in the engine (the buffer's bytes, a run's bytes, the
//! spill rule, the WAL record) charges an entry its logical size,
//! [`Entry::encoded_len`] — a fixed 15-byte header and the whole key. So
//! the tree — every flush, merge, level and run — does not depend on how
//! a page packs entries, or on how much of a key its page shares; only the
//! number of pages each run fills does.
//!
//! **Building.** The prefix only shrinks as keys arrive, and every entry
//! already on the page then carries what it lost in its suffix. The
//! builder stages each entry — its key past the prefix as it stood, and
//! its value — and [`PageBuilder::fits`] prices an entry at the prefix the
//! page would be left with: `count × loss` bytes more for the suffixes, in
//! O(1), plus a suffix length whose varint widens, which only a key 128
//! bytes longer than the prefix can do (then the staged entries are
//! recounted). [`PageBuilder::finish`] writes the page once, at its final
//! prefix. Staging copies each entry twice where the page took it once;
//! [`PageBuilder::try_push`] at least prices it once.
//!
//! **Reading.** A [`PageCursor`] keeps the key under it whole, in a buffer
//! of its own: the prefix is copied in once per page and a suffix per
//! step, inline for keys up to 32 bytes (a longer key goes to a heap
//! buffer the cursor keeps from page to page), so [`key`](PageCursor::key)
//! and [`entry`](PageCursor::entry) borrow and allocate nothing. An owned
//! entry is two slices of one *row block* — the page's entries from the
//! current one on, each key whole and followed by its value, up to a
//! bounded scan's upper bound — built the first time the page hands out
//! an owned entry: one allocation per page, never one per entry. The block
//! is gathered in a buffer the thread keeps and copied out at its size.
//! Values are copied in with the keys so that a row pins one block sized
//! to the rows taken, not the block and the page's frame too: the frame
//! goes back to the pool when the cursor moves on (EXPERIMENTS.md measures
//! what either choice costs the ledger's `scan`).
//!
//! **Searching.** A point lookup does not open a cursor: [`search`] parses
//! the header and the prefix — the first half of opening one — compares
//! the probe with the prefix once and then with suffixes in place, and
//! returns a [`Hit`]. A lookup needs the value, not a key, so it decodes
//! no entry it does not compare, copies no key and slices the value from
//! the page. [`PageCursor::search`] is the same search from the entry
//! under a cursor; both go through one parse of the header and one set of
//! bounds checks.
//!
//! The checksum is [`long_hash`] over everything after it (prefix,
//! entries, padding and offsets), seeded with both bytes of the count, so
//! any bit flipped at rest or in flight surfaces as a corruption error
//! instead of wrong data. [`PageBuilder::finish`] stamps it and [`check`]
//! verifies it. It is the hash of the page and of nothing else in the
//! store (keys, the WAL and the shard router keep XXH64): its eight lanes
//! vectorise, and over a 4 086-byte body it takes about 250 ns where XXH64
//! took about 400.
//!
//! A page is checked **once, where its bytes enter memory**: runs attach
//! [`check`] to their [`Disk`](monkey_storage::Disk),
//! which runs it on every physical read before the block cache may admit
//! the page — a cache hit is never re-hashed. [`PageCursor`] therefore
//! does not hash; it parses the header and bounds-checks the prefix and
//! every entry and offset it reaches, which is all that stands between it
//! and bytes that did not come through a disk.
//!
//! Entries within a page are sorted by internal order. Scans, merges and
//! recovery step through them in that order; a point lookup that has
//! fenced to the right page searches it in memory through the offset
//! array — the page read is the only I/O. The search jumps `√n` entries
//! at a time, then steps through the last jump. It is not a binary search
//! because, on a page outside the CPU cache (a block-cache hit), a binary
//! search's probes each wait on the one before and branch unpredictably,
//! and measured slower than a linear walk; a jump's loads do not wait on
//! each other and its branches are predictable, so the misses overlap.

use crate::entry::{Entry, EntryKind, EntryRef, Hit, ENTRY_HEADER_LEN};
use crate::error::{LsmError, Result};
use bytes::Bytes;
use monkey_bloom::hash::long_hash;
use std::cell::{OnceCell, RefCell};
use std::ops::Range;

const PAGE_SEED: u64 = 0x5041_4745_4D4F_4E4B; // "PAGEMONK"

/// Bytes of per-page header: entry count (u16) + checksum (u64).
pub const PAGE_HEADER_LEN: usize = 2 + 8;

/// The longest key, and so the longest prefix.
const MAX_KEY_LEN: usize = u16::MAX as usize;

/// The most varint bytes a page of one entry holds: its whole key is the
/// prefix, whose length takes up to 3; the empty suffix's length takes 1,
/// the value length up to 5 and the sequence number with its kind up to 10.
const MAX_LONE_ENTRY_VARINTS: usize = 3 + 1 + 5 + 10;

/// Keys up to this long are put back together inside the cursor.
const INLINE_KEY: usize = 32;

/// Bytes of one slot of the offset array on a page of `page_size` bytes.
fn offset_width(page_size: usize) -> usize {
    if page_size <= 1 << 16 {
        2
    } else {
        4
    }
}

/// The largest entry, in logical bytes ([`Entry::encoded_len`]), that is
/// certain to fit an empty page of `page_size` bytes, whatever its key
/// length and sequence number: the page less its header, one offset slot,
/// and the most the varints of a one-entry page take beyond the logical
/// header.
pub fn max_entry_len(page_size: usize) -> usize {
    page_size.saturating_sub(
        PAGE_HEADER_LEN + offset_width(page_size) + MAX_LONE_ENTRY_VARINTS - ENTRY_HEADER_LEN,
    )
}

/// Bytes of `v` as a varint.
#[inline]
fn varint_len(v: u64) -> usize {
    match v {
        0..0x80 => 1,
        _ => (70 - v.leading_zeros() as usize) / 7,
    }
}

/// Writes `v` as a varint at the head of `buf`; returns its length.
#[inline]
fn put_varint(buf: &mut [u8], mut v: u64) -> usize {
    let mut i = 0;
    while v >= 0x80 {
        buf[i] = v as u8 | 0x80;
        v >>= 7;
        i += 1;
    }
    buf[i] = v as u8;
    i + 1
}

/// Reads the varint at `*pos` in `buf`, moving `pos` past it. `None` when
/// it runs off `buf` or overflows 64 bits.
#[inline]
fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let first = *buf.get(*pos)?;
    *pos += 1;
    if first < 0x80 {
        return Some(first as u64);
    }
    let mut v = (first & 0x7f) as u64;
    for shift in (7..64).step_by(7) {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte < 0x80 {
            // The tenth byte holds bit 63 alone.
            return (shift < 63 || byte <= 1).then_some(v);
        }
    }
    None
}

/// Moves `pos` past the varint at `*pos` in `buf`; `None` when it runs
/// off `buf`.
#[inline]
fn skip_varint(buf: &[u8], pos: &mut usize) -> Option<()> {
    while *buf.get(*pos)? >= 0x80 {
        *pos += 1;
    }
    *pos += 1;
    Some(())
}

/// Bytes of the varint of `seq << 2 | kind`, 66 bits wide at most: the
/// first byte holds the kind and the low five bits of `seq`, the rest is
/// the varint of `seq >> 5`.
#[inline]
fn seq_kind_len(seq: u64) -> usize {
    match seq >> 5 {
        0 => 1,
        high => 1 + varint_len(high),
    }
}

/// Writes the varint of `seq << 2 | kind` (see [`seq_kind_len`]).
#[inline]
fn put_seq_kind(buf: &mut [u8], seq: u64, kind: EntryKind) -> usize {
    let high = seq >> 5;
    let more = if high > 0 { 0x80 } else { 0 };
    buf[0] = more | (((seq & 0x1f) as u8) << 2) | kind.to_byte();
    match high {
        0 => 1,
        high => 1 + put_varint(&mut buf[1..], high),
    }
}

/// Bytes `entry` takes on a page that does not depend on the prefix: its
/// value length's and sequence number's varints, its whole key and its
/// value.
#[inline]
fn body_len(entry: EntryRef<'_>) -> usize {
    varint_len(entry.value.len() as u64)
        + seq_kind_len(entry.seq)
        + entry.key.len()
        + entry.value.len()
}

/// How many leading bytes `a` and `b` share; all of `a` (one `memcmp`)
/// in the common case of a key that keeps a page's prefix.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    if b.starts_with(a) {
        return a.len();
    }
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// An entry on the page under construction, its bytes staged in the
/// builder.
struct Staged {
    /// The page's prefix when the entry arrived: its staged suffix is its
    /// key past that.
    prefix: usize,
    suffix: usize,
    value: usize,
    seq: u64,
    kind: EntryKind,
}

/// An in-construction page. Entries arrive as borrowed views (`&Entry`
/// converts) in key order and are staged until [`finish`](Self::finish)
/// writes the page at its final prefix (see the module doc).
///
/// The builder owns its buffers for its whole life — the page, the staged
/// bytes (never more than a page of them) and the entries' lengths: a
/// finished page is lent out of the page buffer, and the next page is
/// built over the same bytes.
pub struct PageBuilder {
    /// Always one page long: where `finish` writes the page.
    buf: Vec<u8>,
    /// Bytes of one offset slot.
    width: usize,
    /// Each entry's staged suffix and its value, back to back.
    staged: Vec<u8>,
    entries: Vec<Staged>,
    /// The page's first key, whole: the prefix is its first `prefix`
    /// bytes, and a suffix staged against a longer prefix regains its
    /// bytes from here.
    first_key: Vec<u8>,
    /// The most recently pushed key, whole.
    last_key: Vec<u8>,
    /// Bytes every key on the page starts with.
    prefix: usize,
    /// Sum of the entries' [`body_len`]s.
    body: usize,
    /// Bytes of the entries' suffix-length varints at `prefix`.
    suffix_lens: usize,
    /// The longest key on the page.
    longest: usize,
}

impl PageBuilder {
    /// Starts an empty page of `page_size` bytes.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > PAGE_HEADER_LEN, "page too small: {page_size}");
        Self {
            buf: vec![0; page_size],
            width: offset_width(page_size),
            staged: Vec::with_capacity(page_size),
            entries: Vec::new(),
            first_key: Vec::new(),
            last_key: Vec::new(),
            prefix: 0,
            body: 0,
            suffix_lens: 0,
            longest: 0,
        }
    }

    /// Bytes of a page of `count` entries whose [`body_len`]s sum to
    /// `body`, under a prefix of `prefix` bytes, their suffix lengths
    /// taking `suffix_lens`: every key gives the prefix back once.
    fn page_len(&self, count: usize, prefix: usize, body: usize, suffix_lens: usize) -> usize {
        PAGE_HEADER_LEN
            + varint_len(prefix as u64)
            + prefix
            + body
            + suffix_lens
            + count * self.width
            - count * prefix
    }

    /// Bytes of the staged entries' suffix-length varints under a prefix
    /// of `prefix` bytes: one each, unless a key is 128 bytes longer.
    fn suffix_lens_at(&self, prefix: usize) -> usize {
        if self.longest - prefix < 0x80 {
            return self.entries.len();
        }
        let suffix_len = |e: &Staged| varint_len((e.prefix + e.suffix - prefix) as u64);
        self.entries.iter().map(suffix_len).sum()
    }

    /// The prefix, body and suffix-length bytes the page would have with
    /// `entry` added; `None` when it would not fit.
    fn price(&self, entry: EntryRef<'_>) -> Option<(usize, usize, usize)> {
        let key = entry.key;
        let (prefix, earlier) = if self.is_empty() {
            (key.len(), 0)
        } else {
            let prefix = common_prefix(&self.first_key[..self.prefix], key);
            match prefix == self.prefix {
                true => (prefix, self.suffix_lens),
                false => (prefix, self.suffix_lens_at(prefix)),
            }
        };
        let suffix_lens = earlier + varint_len((key.len() - prefix) as u64);
        let body = self.body + body_len(entry);
        let count = self.entries.len() + 1;
        (count <= u16::MAX as usize
            && self.page_len(count, prefix, body, suffix_lens) <= self.buf.len())
        .then_some((prefix, body, suffix_lens))
    }

    /// Whether `entry` fits in the remaining space, at the prefix it
    /// would leave the page with.
    pub fn fits<'a>(&self, entry: impl Into<EntryRef<'a>>) -> bool {
        self.price(entry.into()).is_some()
    }

    /// Number of entries appended so far.
    pub fn count(&self) -> u16 {
        self.entries.len() as u16
    }

    /// Appends an entry; keys arrive in ascending order.
    ///
    /// Returns [`LsmError::EntryTooLarge`] if the entry can never fit in an
    /// empty page, [`LsmError::KeyTooLarge`] for keys over the u16 limit.
    /// Callers check [`fits`](Self::fits) first to close full pages; a push
    /// that does not fit a page already holding entries panics.
    pub fn push<'a>(&mut self, entry: impl Into<EntryRef<'a>>) -> Result<()> {
        let pushed = self.try_push(entry)?;
        assert!(pushed, "caller must close full pages first");
        Ok(())
    }

    /// Appends `entry` if it fits, priced once where [`fits`](Self::fits)
    /// then [`push`](Self::push) price it twice. `Ok(false)`, with nothing
    /// appended, when it does not fit a page that holds entries: the
    /// caller closes the page and pushes the entry onto the next. Errors as
    /// [`push`](Self::push) does.
    pub fn try_push<'a>(&mut self, entry: impl Into<EntryRef<'a>>) -> Result<bool> {
        let entry = entry.into();
        if entry.key.len() > MAX_KEY_LEN {
            return Err(LsmError::KeyTooLarge(entry.key.len()));
        }
        let Some((prefix, body, suffix_lens)) = self.price(entry) else {
            if !self.is_empty() {
                return Ok(false);
            }
            return Err(LsmError::EntryTooLarge {
                encoded: entry.encoded_len(),
                max: max_entry_len(self.buf.len()),
            });
        };
        if self.is_empty() {
            self.first_key.extend_from_slice(entry.key);
        }
        self.staged.extend_from_slice(&entry.key[prefix..]);
        self.staged.extend_from_slice(entry.value);
        self.entries.push(Staged {
            prefix,
            suffix: entry.key.len() - prefix,
            value: entry.value.len(),
            seq: entry.seq,
            kind: entry.kind,
        });
        self.last_key.clear();
        self.last_key.extend_from_slice(entry.key);
        (self.prefix, self.body, self.suffix_lens) = (prefix, body, suffix_lens);
        self.longest = self.longest.max(entry.key.len());
        Ok(true)
    }

    /// True when no entries have been appended.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The whole key of the most recently appended entry (empty on an
    /// empty page).
    pub fn last_key(&self) -> &[u8] {
        &self.last_key
    }

    /// Writes the page at its final prefix — prefix, entries, zero padding
    /// and offsets — stamps count and checksum, and lends the finished
    /// page, leaving the builder empty: the next [`push`](Self::push)
    /// starts a new page over the same buffers.
    pub fn finish(&mut self) -> &[u8] {
        let count = self.entries.len();
        let prefix = self.prefix;
        debug_assert_eq!(
            self.page_len(count, prefix, self.body, self.suffix_lens),
            self.page_len(count, prefix, self.body, self.suffix_lens_at(prefix)),
        );
        let page_len = self.page_len(count, prefix, self.body, self.suffix_lens);
        let page = &mut self.buf;
        let size = page.len();
        let mut at = PAGE_HEADER_LEN + put_varint(&mut page[PAGE_HEADER_LEN..], prefix as u64);
        page[at..at + prefix].copy_from_slice(&self.first_key[..prefix]);
        at += prefix;
        let mut staged = 0;
        for (i, e) in self.entries.iter().enumerate() {
            let slot = size - (i + 1) * self.width;
            match self.width {
                2 => page[slot..slot + 2].copy_from_slice(&(at as u16).to_le_bytes()),
                _ => page[slot..slot + 4].copy_from_slice(&(at as u32).to_le_bytes()),
            }
            at += put_varint(&mut page[at..], (e.prefix + e.suffix - prefix) as u64);
            at += put_varint(&mut page[at..], e.value as u64);
            at += put_seq_kind(&mut page[at..], e.seq, e.kind);
            // What the prefix lost since the entry arrived, then the
            // suffix it arrived with and its value.
            let regained = &self.first_key[prefix..e.prefix];
            page[at..at + regained.len()].copy_from_slice(regained);
            at += regained.len();
            let rest = &self.staged[staged..staged + e.suffix + e.value];
            page[at..at + rest.len()].copy_from_slice(rest);
            at += rest.len();
            staged += rest.len();
        }
        debug_assert_eq!(at + count * self.width, page_len);
        page[at..size - count * self.width].fill(0);
        page[0..2].copy_from_slice(&(count as u16).to_le_bytes());
        seal(page);
        self.staged.clear();
        self.entries.clear();
        self.first_key.clear();
        self.last_key.clear();
        (self.prefix, self.body, self.suffix_lens, self.longest) = (0, 0, 0, 0);
        &self.buf
    }
}

/// The checksum of a page: [`long_hash`] of everything after the header,
/// seeded with the count it does not cover.
fn checksum(page: &[u8]) -> u64 {
    let count = u16::from_le_bytes([page[0], page[1]]);
    long_hash(&page[PAGE_HEADER_LEN..], PAGE_SEED ^ count as u64)
}

/// Stamps the checksum of a page whose count and body are in place.
/// Panics on a buffer shorter than the header.
fn seal(page: &mut [u8]) {
    let sum = checksum(page);
    page[2..PAGE_HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
}

/// Verifies a page's checksum. This is the
/// [`PageCheck`](monkey_storage::PageCheck) runs attach to their disk,
/// which calls it on every page it reads from the backend; on the read
/// side, no other code hashes a page.
pub fn check(page: &[u8]) -> std::result::Result<(), String> {
    if page.len() < PAGE_HEADER_LEN {
        return Err(format!(
            "page of {} bytes is shorter than its header",
            page.len()
        ));
    }
    let stored = u64::from_le_bytes(page[2..PAGE_HEADER_LEN].try_into().unwrap());
    let computed = checksum(page);
    if stored != computed {
        return Err(format!(
            "page checksum mismatch: stored {stored:#x}, computed {computed:#x}"
        ));
    }
    Ok(())
}

/// A key put back together from its page's prefix and its suffix, in a
/// buffer the cursor owns: inline up to [`INLINE_KEY`] bytes, in a heap
/// buffer the cursor keeps beyond.
struct KeyBuf {
    len: usize,
    /// Holds the page's prefix from [`start`](Self::start) on, when it
    /// fits, and the key when it fits.
    inline: [u8; INLINE_KEY],
    /// The key, when it is longer than `inline`; empty, or starting with
    /// the page's prefix.
    heap: Vec<u8>,
}

impl KeyBuf {
    fn new() -> Self {
        Self {
            len: 0,
            inline: [0; INLINE_KEY],
            heap: Vec::new(),
        }
    }

    /// Starts a page whose keys all begin with `prefix`.
    fn start(&mut self, prefix: &[u8]) {
        if let Some(head) = self.inline.get_mut(..prefix.len()) {
            head.copy_from_slice(prefix);
        }
        self.heap.clear();
    }

    /// Makes the key `prefix` then `suffix`, `prefix` being the one the
    /// page [`start`](Self::start)ed with.
    #[inline]
    fn set(&mut self, prefix: &[u8], suffix: &[u8]) {
        let len = prefix.len() + suffix.len();
        if len <= INLINE_KEY {
            self.inline[prefix.len()..len].copy_from_slice(suffix);
        } else {
            if self.heap.is_empty() {
                self.heap.extend_from_slice(prefix);
            }
            self.heap.truncate(prefix.len());
            self.heap.extend_from_slice(suffix);
        }
        self.len = len;
    }

    #[inline]
    fn get(&self) -> &[u8] {
        match self.len <= INLINE_KEY {
            true => &self.inline[..self.len],
            false => &self.heap,
        }
    }
}

thread_local! {
    /// Where a row block is gathered in one walk before it is copied out
    /// at its size — one buffer a thread, two pages long, so a block costs
    /// one allocation.
    static GATHER: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// One entry's header, decoded and bounds-checked.
struct Parsed {
    /// Where its suffix starts; its value follows.
    suffix: usize,
    suffix_len: usize,
    value_len: usize,
    seq: u64,
    kind: EntryKind,
}

impl Parsed {
    fn suffix(&self) -> Range<usize> {
        self.suffix..self.suffix + self.suffix_len
    }

    fn value(&self) -> Range<usize> {
        let start = self.suffix + self.suffix_len;
        start..start + self.value_len
    }
}

/// A range of page offsets as a range to index the page with.
#[inline]
fn span(range: &Range<u32>) -> Range<usize> {
    range.start as usize..range.end as usize
}

/// An encoded page whose header and prefix are parsed and bounds-checked:
/// what a lookup searches ([`search`]) and a [`PageCursor`] steps through.
/// Every check between the page's bytes and an entry read from them is
/// here, once for both.
struct Page {
    bytes: Bytes,
    /// Where the page's prefix lies; the entries start where it ends.
    prefix: Range<u32>,
    /// End of the entry area: where the offset array starts. (A page's
    /// offsets are `u32`s at most, and so are a cursor's counters: a run
    /// cursor holds one of these, and a merge one per input.)
    end: u32,
}

impl Page {
    /// No page (and holding nothing): no entries.
    fn empty() -> Self {
        Self {
            bytes: Bytes::new(),
            prefix: 0..0,
            end: 0,
        }
    }

    /// Parses the header and the prefix of `bytes`; reads no entry.
    fn open(bytes: Bytes) -> Result<Self> {
        let Some(header) = bytes.get(..PAGE_HEADER_LEN) else {
            return Err(LsmError::Corruption("page shorter than header".into()));
        };
        let count = u16::from_le_bytes([header[0], header[1]]) as usize;
        let Some(end) = (bytes.len() - PAGE_HEADER_LEN)
            .checked_sub(count * offset_width(bytes.len()))
            .map(|area| PAGE_HEADER_LEN + area)
        else {
            return Err(LsmError::Corruption(format!(
                "{count} offsets overflow a page of {} bytes",
                bytes.len()
            )));
        };
        let mut page = Self {
            bytes,
            prefix: PAGE_HEADER_LEN as u32..PAGE_HEADER_LEN as u32,
            end: end as u32,
        };
        if count == 0 {
            return Ok(page);
        }
        let mut pos = PAGE_HEADER_LEN;
        let Some(len) = read_varint(page.area(), &mut pos) else {
            return Err(LsmError::Corruption("page prefix length truncated".into()));
        };
        if len > MAX_KEY_LEN as u64 {
            return Err(LsmError::Corruption(format!(
                "page prefix of {len} bytes is longer than a key"
            )));
        }
        if len as usize > end - pos {
            return Err(LsmError::Corruption(format!(
                "page prefix of {len} bytes runs past the entry area"
            )));
        }
        page.prefix = pos as u32..(pos + len as usize) as u32;
        Ok(page)
    }

    /// End of the entry area.
    #[inline]
    fn end(&self) -> usize {
        self.end as usize
    }

    /// The page up to the end of its entry area.
    #[inline]
    fn area(&self) -> &[u8] {
        &self.bytes[..self.end()]
    }

    /// The page's prefix.
    #[inline]
    fn prefix(&self) -> &[u8] {
        &self.bytes[span(&self.prefix)]
    }

    /// Entries on the page (none on no page).
    #[inline]
    fn count(&self) -> usize {
        self.bytes
            .get(..2)
            .map_or(0, |count| u16::from_le_bytes([count[0], count[1]]) as usize)
    }

    /// Finds the newest version of `key` among the entries from entry
    /// `from` on: its value, sequence number and kind (see
    /// [`PageCursor::search`]).
    fn search(&self, key: &[u8], from: usize) -> Result<Option<Hit>> {
        let i = self.find(key, from)?;
        if i == self.count() {
            return Ok(None);
        }
        let e = self.parse(self.offset_of(i)?)?;
        let found = key.strip_prefix(self.prefix()) == Some(&self.bytes[e.suffix()]);
        Ok(found.then(|| Hit {
            value: self.bytes.slice(e.value()),
            seq: e.seq,
            kind: e.kind,
        }))
    }

    /// The index of the first entry from entry `from` on whose key is not
    /// below `key`; the entry count when there is none.
    fn find(&self, key: &[u8], from: usize) -> Result<usize> {
        let count = self.count();
        if from >= count {
            return Ok(count);
        }
        let prefix = self.prefix();
        let Some(rest) = key.strip_prefix(prefix) else {
            // Every key starts with the prefix, so a probe that does not
            // sorts below all of them or above all of them.
            return Ok(if key < prefix { from } else { count });
        };
        let mut lo = from;
        let stride = (count - from).isqrt();
        while lo + stride <= count && self.suffix_of(lo + stride - 1)? < rest {
            lo += stride;
        }
        while lo < count && self.suffix_of(lo)? < rest {
            lo += 1;
        }
        Ok(lo)
    }

    /// Where entry `i`'s header starts, from its offset slot, which must
    /// point into the entry area.
    #[inline]
    fn offset_of(&self, i: usize) -> Result<usize> {
        let width = offset_width(self.bytes.len());
        let slot = &self.bytes[self.bytes.len() - (i + 1) * width..][..width];
        let off = match width {
            2 => u16::from_le_bytes([slot[0], slot[1]]) as usize,
            _ => u32::from_le_bytes(slot.try_into().unwrap()) as usize,
        };
        if !(self.prefix.end as usize..self.end()).contains(&off) {
            return Err(LsmError::Corruption(format!(
                "offset {off} of entry {i} points outside the entry area"
            )));
        }
        Ok(off)
    }

    /// Entry `i`'s suffix: its length is read and the two varints after it
    /// skipped, nothing else of the entry decoded or checked.
    #[inline]
    fn suffix_of(&self, i: usize) -> Result<&[u8]> {
        let off = self.offset_of(i)?;
        let area = self.area();
        let mut pos = off;
        let suffix = read_varint(area, &mut pos).and_then(|len| {
            skip_varint(area, &mut pos)?;
            skip_varint(area, &mut pos)?;
            area.get(pos..pos.checked_add(len as usize)?)
        });
        suffix.ok_or_else(|| LsmError::Corruption(format!("entry at page offset {off} truncated")))
    }

    /// Decodes the header of the entry at `off`, bounds-checking header
    /// and body against the entry area.
    fn parse(&self, off: usize) -> Result<Parsed> {
        let corrupt =
            |what: &str| LsmError::Corruption(format!("entry at page offset {off} {what}"));
        let area = self.area();
        let mut pos = off;
        let (Some(suffix_len), Some(value_len), Some(&tag)) = (
            read_varint(area, &mut pos),
            read_varint(area, &mut pos),
            area.get(pos),
        ) else {
            return Err(corrupt("header truncated"));
        };
        pos += 1;
        let kind = EntryKind::from_byte(tag & 3).ok_or_else(|| corrupt("has bad kind byte"))?;
        let mut seq = ((tag >> 2) & 0x1f) as u64;
        if tag >= 0x80 {
            match read_varint(area, &mut pos) {
                Some(high) if high >> 59 == 0 => seq |= high << 5,
                _ => return Err(corrupt("header truncated")),
            }
        }
        if suffix_len > (MAX_KEY_LEN - self.prefix.len()) as u64 {
            return Err(corrupt("has a key longer than a key can be"));
        }
        let room = (self.end() - pos) as u64;
        if value_len
            .checked_add(suffix_len)
            .is_none_or(|body| body > room)
        {
            return Err(corrupt("body truncated"));
        }
        let (suffix_len, value_len) = (suffix_len as usize, value_len as usize);
        Ok(Parsed {
            suffix: pos,
            suffix_len,
            value_len,
            seq,
            kind,
        })
    }
}

/// Finds the newest version of `key` on `page`: the search
/// [`PageCursor::search`] makes, without positioning a cursor — the page's
/// header and prefix are parsed, and no entry is decoded or key copied
/// but those the search compares. A point lookup's page search.
pub fn search(page: Bytes, key: &[u8]) -> Result<Option<Hit>> {
    Page::open(page)?.search(key, 0)
}

/// A cursor positioned on one entry of an encoded page. Opening it parses
/// the page header and prefix, then loads the first entry; each step
/// validates one entry header against the page's entry area. The checksum
/// is not its business (see the module doc). The entry under the cursor is
/// read **borrowed** — its key from the cursor's own key buffer, its value
/// from the page bytes — by [`key`](Self::key) and [`entry`](Self::entry),
/// with no `Bytes` refcount traffic; only [`to_entry`](Self::to_entry) /
/// [`next_entry`](Self::next_entry) build an owned [`Entry`], whose key
/// and value are `Bytes` slices of the page's row block.
///
/// Scans, merges and recovery read pages through this type; a point lookup
/// searches a page with [`search`], the first half of opening one.
pub struct PageCursor {
    page: Page,
    /// The current entry's key, whole.
    key: KeyBuf,
    /// Where the current entry's value lies on the page.
    value: Range<u32>,
    seq: u64,
    kind: EntryKind,
    /// Entries from the current one on; 0 = past the end.
    remaining: u32,
    /// The row block owned entries slice their keys and values from, once
    /// built — consecutive entries' keys, whole, each followed by its value
    /// — and the [`remaining`](Self::remaining) count at which the cursor
    /// is past its last row.
    rows: OnceCell<(Bytes, usize)>,
    /// Where the current entry's key starts in the row block.
    rows_at: u32,
}

impl PageCursor {
    /// Opens a cursor on the page's first entry.
    pub fn new(page: Bytes) -> Result<Self> {
        let mut cursor = Self::empty();
        cursor.open(page)?;
        Ok(cursor)
    }

    /// A cursor over nothing (and holding nothing).
    pub(crate) fn empty() -> Self {
        Self {
            page: Page::empty(),
            key: KeyBuf::new(),
            value: 0..0,
            seq: 0,
            kind: EntryKind::Put,
            remaining: 0,
            rows: OnceCell::new(),
            rows_at: 0,
        }
    }

    /// Puts the cursor on the first entry of `page`, keeping the key
    /// buffer it has. After an error it is past the end.
    pub(crate) fn open(&mut self, page: Bytes) -> Result<()> {
        self.remaining = 0;
        self.drop_rows();
        self.page = Page::open(page)?;
        let count = self.page.count();
        if count > 0 {
            self.key.start(self.page.prefix());
            self.load(self.page.prefix.end as usize)?;
            self.remaining = count as u32;
        }
        Ok(())
    }

    /// Entries from the current one on.
    pub fn remaining(&self) -> usize {
        self.remaining as usize
    }

    /// Index of the current entry on the page.
    fn position(&self) -> usize {
        self.page.count() - self.remaining()
    }

    /// The current entry's key, whole; `None` past the end.
    #[inline]
    pub fn key(&self) -> Option<&[u8]> {
        (self.remaining > 0).then(|| self.key.get())
    }

    /// The current entry's sequence number (meaningless past the end).
    #[inline]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The current entry, borrowed; `None` past the end.
    #[inline]
    pub fn entry(&self) -> Option<EntryRef<'_>> {
        (self.remaining > 0).then(|| EntryRef {
            key: self.key.get(),
            value: &self.page.bytes[span(&self.value)],
            seq: self.seq,
            kind: self.kind,
        })
    }

    /// The current entry, owned: key and value are slices of the page's
    /// row block, built on the first call for a page. `None` past the end.
    pub fn to_entry(&self) -> Option<Entry> {
        self.to_entry_below(None)
    }

    /// [`to_entry`](Self::to_entry) for a reader that takes no entry whose
    /// key is at or past `hi` (a bounded scan): a row block it builds stops
    /// there, so the entries past the bound are neither walked nor copied.
    pub(crate) fn to_entry_below(&self, hi: Option<&[u8]>) -> Option<Entry> {
        (self.remaining > 0).then(|| {
            let (rows, _) = self.rows.get_or_init(|| self.row_block(hi));
            let key = self.rows_at as usize;
            let value = key + self.key.len;
            Entry {
                key: rows.slice(key..value),
                value: rows.slice(value..value + self.value.len()),
                seq: self.seq,
                kind: self.kind,
            }
        })
    }

    /// Steps to the next entry, validating its header.
    pub fn advance(&mut self) -> Result<()> {
        let row_len = self.key.len + self.value.len();
        if self.remaining > 1 {
            self.load(self.value.end as usize)?;
        }
        self.remaining = self.remaining.saturating_sub(1);
        if let Some(&(_, past)) = self.rows.get() {
            // Past the block's last row, the next owned entry builds a new
            // one.
            self.rows_at += row_len as u32;
            if self.remaining() == past {
                self.drop_rows();
            }
        }
        Ok(())
    }

    /// Returns the current entry, owned, and steps past it.
    pub fn next_entry(&mut self) -> Result<Option<Entry>> {
        let entry = self.to_entry();
        self.advance()?;
        Ok(entry)
    }

    /// Finds the newest version of `key` among the entries from the
    /// current one on: its value, sequence number and kind.
    ///
    /// Entries are in internal order (key asc, seq desc), so the first
    /// entry whose key is not below `key` is its newest version. The
    /// search compares `key` with the page's prefix once, then finds the
    /// entry among the suffixes through the offset array, `√n` entries a
    /// jump and then one at a time (see the module doc). A step decodes
    /// only what it takes to find a suffix and compares it in place;
    /// nothing is copied, and the value found is a slice of the page.
    pub fn search(self, key: &[u8]) -> Result<Option<Hit>> {
        self.page.search(key, self.position())
    }

    /// Moves the cursor to the first entry, from the current one on, whose
    /// key is not below `key` — past the end when there is none — by the
    /// search [`search`](Self::search) makes.
    pub(crate) fn seek(&mut self, key: &[u8]) -> Result<()> {
        let (from, count) = (self.position(), self.page.count());
        let i = self.page.find(key, from)?;
        if i > from {
            if i < count {
                self.load(self.page.offset_of(i)?)?;
            }
            self.remaining = (count - i) as u32;
            self.drop_rows();
        }
        Ok(())
    }

    /// Positions the cursor on the entry whose header starts at `off`; the
    /// cursor does not move when the entry is malformed.
    fn load(&mut self, off: usize) -> Result<()> {
        let e = self.page.parse(off)?;
        self.key
            .set(self.page.prefix(), &self.page.bytes[e.suffix()]);
        let value = e.value();
        self.value = value.start as u32..value.end as u32;
        (self.seq, self.kind) = (e.seq, e.kind);
        Ok(())
    }

    /// The current entry and the ones after it as rows — each key whole,
    /// then its value — back to back: up to the first key at or past `hi`,
    /// or until they would outgrow two pages (a page whose keys share a
    /// long prefix takes a block per two pages' worth of rows), or up to an
    /// entry that does not parse, where the cursor will stop with an error.
    fn row_block(&self, hi: Option<&[u8]>) -> (Bytes, usize) {
        let prefix = self.page.prefix();
        GATHER.with_borrow_mut(|rows| {
            rows.clear();
            // Sized once, the buffer never grows again.
            rows.reserve(self.row_budget());
            rows.extend_from_slice(self.key.get());
            rows.extend_from_slice(&self.page.bytes[span(&self.value)]);
            let mut count = 1;
            for suffix_and_value in self.following_rows(hi) {
                rows.extend_from_slice(prefix);
                rows.extend_from_slice(&self.page.bytes[suffix_and_value]);
                count += 1;
            }
            (Bytes::copy_from_slice(rows), self.remaining() - count)
        })
    }

    /// The most bytes a row block takes: two pages, or the row it starts
    /// with.
    fn row_budget(&self) -> usize {
        (2 * self.page.bytes.len()).max(self.key.len + self.value.len())
    }

    /// Where the suffix and value of each entry after the current one lie
    /// (they are adjacent), as far as [`row_block`](Self::row_block) takes
    /// them. The walk reads each header's lengths and bounds-checks the
    /// entry, no more: the cursor checks the rest of an entry when it steps
    /// onto it.
    fn following_rows<'a>(
        &'a self,
        hi: Option<&'a [u8]>,
    ) -> impl Iterator<Item = Range<usize>> + 'a {
        let area = self.page.area();
        let prefix = self.page.prefix();
        // Every key starts with the prefix: a bound that does not sorts
        // above all of them (no stop) or at or below all of them (stop at
        // once, at the empty suffix).
        let stop = hi.and_then(|hi| match hi.strip_prefix(prefix) {
            Some(rest) => Some(rest),
            None => (hi < prefix).then_some(&[][..]),
        });
        let budget = self.row_budget();
        let (mut len, mut pos) = (self.key.len + self.value.len(), self.value.end as usize);
        (1..self.remaining()).map_while(move |_| {
            let suffix_len = read_varint(area, &mut pos)? as usize;
            let value_len = read_varint(area, &mut pos)? as usize;
            skip_varint(area, &mut pos)?; // the sequence number
            let start = pos;
            let suffix_end = start.checked_add(suffix_len)?;
            pos = suffix_end.checked_add(value_len)?;
            len += prefix.len() + suffix_len + value_len;
            if pos > area.len() || len > budget {
                return None;
            }
            stop.is_none_or(|stop| area[start..suffix_end] < *stop)
                .then_some(start..pos)
        })
    }

    /// Forgets the row block, if there is one.
    fn drop_rows(&mut self) {
        self.rows = OnceCell::new();
        self.rows_at = 0;
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn entry(k: &str, v: &str, seq: u64) -> Entry {
        Entry::put(k.as_bytes().to_vec(), v.as_bytes().to_vec(), seq)
    }

    /// What a search that finds `e` returns.
    fn hit(e: &Entry) -> Hit {
        Hit {
            value: e.value.clone(),
            seq: e.seq,
            kind: e.kind,
        }
    }

    fn page_of(entries: &[Entry], page_size: usize) -> Bytes {
        let mut b = PageBuilder::new(page_size);
        for e in entries {
            assert!(b.fits(e));
            b.push(e).unwrap();
        }
        Bytes::copy_from_slice(b.finish())
    }

    /// Every entry of a page, owned.
    fn decode(page: Bytes) -> Result<Vec<Entry>> {
        let mut cursor = PageCursor::new(page)?;
        let mut entries = Vec::with_capacity(cursor.remaining());
        while let Some(entry) = cursor.next_entry()? {
            entries.push(entry);
        }
        Ok(entries)
    }

    /// Where entry `i`'s offset slot starts on a page of up to 64 KiB.
    fn slot(page: &[u8], i: usize) -> usize {
        page.len() - (i + 1) * 2
    }

    /// The page's prefix, as its cursor reads it.
    fn prefix_of(page: &Bytes) -> &[u8] {
        let mut pos = PAGE_HEADER_LEN;
        let len = read_varint(page, &mut pos).unwrap() as usize;
        &page[pos..pos + len]
    }

    #[test]
    fn build_and_decode_roundtrip() {
        let entries = vec![
            entry("alpha", "1", 10),
            entry("beta", "2", 11),
            entry("gamma", "", 12),
        ];
        let page = page_of(&entries, 256);
        assert_eq!(page.len(), 256);
        assert_eq!(decode(page).unwrap(), entries);
    }

    #[test]
    fn tombstones_roundtrip() {
        let t = Entry::tombstone(b"dead".to_vec(), 99);
        assert_eq!(
            decode(page_of(std::slice::from_ref(&t), 128)).unwrap(),
            vec![t]
        );
    }

    #[test]
    fn varints_roundtrip_at_every_length() {
        let mut buf = [0u8; 10];
        for v in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX >> 1,
            u64::MAX,
        ] {
            let len = put_varint(&mut buf, v);
            assert_eq!(len, varint_len(v), "{v}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf[..len], &mut pos), Some(v));
            assert_eq!(pos, len);
            // Cut short, it is no varint.
            assert_eq!(read_varint(&buf[..len - 1], &mut 0), None);
        }
        // A tenth byte carrying more than bit 63 overflows.
        let mut over = [0xffu8; 10];
        over[9] = 0x02;
        assert_eq!(read_varint(&over, &mut 0), None);
    }

    #[test]
    fn sequence_and_kind_roundtrip_over_all_64_bits() {
        for seq in [0, 31, 32, 1 << 19, (1 << 59) - 1, 1 << 61, u64::MAX] {
            let want = vec![
                Entry::put(b"k".to_vec(), b"v".to_vec(), seq),
                Entry::tombstone(b"l".to_vec(), seq),
            ];
            let page = page_of(&want, 128);
            assert_eq!(decode(page.clone()).unwrap(), want, "seq {seq}");
            // The keys share nothing: a zero prefix length, then the put,
            // whose last header varint is that of `seq << 2 | 0`, up to 66
            // bits wide.
            let (mut word, mut leb) = ((seq as u128) << 2, Vec::new());
            while word >= 0x80 {
                leb.push(word as u8 | 0x80);
                word >>= 7;
            }
            leb.push(word as u8);
            assert_eq!(seq_kind_len(seq), leb.len(), "seq {seq}");
            assert_eq!(page[PAGE_HEADER_LEN], 0, "seq {seq}");
            assert_eq!(&page[PAGE_HEADER_LEN + 3..][..leb.len()], leb, "seq {seq}");
        }
    }

    /// A ledger-shaped entry: a 16-byte key, a 112-byte value and a
    /// sequence number past 2^19.
    fn ledger_entry(key: Vec<u8>) -> Entry {
        Entry::put(key, vec![b'v'; 112], 3_000_000)
    }

    /// How many of `entries` a 4 KiB page takes, and the page.
    fn fill(entries: impl Iterator<Item = Entry>) -> (u16, Bytes) {
        let mut b = PageBuilder::new(4096);
        for e in entries {
            if !b.fits(&e) {
                break;
            }
            b.push(&e).unwrap();
        }
        (b.count(), Bytes::copy_from_slice(b.finish()))
    }

    #[test]
    fn a_ledger_entry_takes_six_header_bytes_and_thirty_fit_a_page() {
        // Keys that share nothing: the whole key stays with each entry,
        // behind a one-byte zero prefix length.
        let key = |i: u8| [vec![i], vec![b'k'; 15]].concat();
        let e = ledger_entry(key(0));
        assert_eq!(varint_len(16) + body_len((&e).into()), 6 + 128);
        let (count, page) = fill((0..=255).map(|i| ledger_entry(key(i))));
        assert_eq!(count, 30);
        assert_eq!(prefix_of(&page), b"");
    }

    #[test]
    fn ledger_keys_leave_thirteen_bytes_on_the_page_and_thirty_three_fit() {
        // 16-digit decimals a page spans fewer than a hundred of, across a
        // hundred: 13 digits are the page's, 3 the entry's, whose 121
        // bytes and 2-byte offset fit 33 times.
        let key = |i: u64| format!("{:016}", 4_321_098_765_432_170 + 3 * i).into_bytes();
        let e = ledger_entry(key(0));
        assert_eq!(varint_len(3) + body_len((&e).into()) - 13, 121);
        let (count, page) = fill((0..100).map(|i| ledger_entry(key(i))));
        assert_eq!(count, 33);
        assert_eq!(prefix_of(&page), b"4321098765432");
        let want: Vec<Entry> = (0..33).map(|i| ledger_entry(key(i))).collect();
        assert_eq!(decode(page).unwrap(), want);
    }

    #[test]
    fn fits_respects_page_size() {
        // 10 header bytes, a 1-byte prefix length and the lone key as the
        // prefix, then 3 + 14 for the entry and 2 for its offset: 40 of 64
        // bytes.
        let mut b = PageBuilder::new(64);
        let e = entry("0123456789", "01234567890123", 1);
        assert!(b.fits(&e));
        b.push(&e).unwrap();
        // A key sharing nothing empties the prefix, and the first entry's
        // suffix takes back all 10 bytes: 11 + 27 + 2, leaving 24 for a
        // 3-byte header, a 10-byte key, the value and a 2-byte offset.
        assert!(b.fits(&entry("a123456789", &"v".repeat(9), 2)));
        assert!(!b.fits(&entry("a123456789", &"v".repeat(10), 2)));
        // One sharing nine bytes leaves them the prefix: 20, then 18 for
        // the first entry, 2 × 2 for offsets and 4 + the value for the
        // second — the fit is exact at 64.
        assert!(b.fits(&entry("012345678a", &"v".repeat(18), 2)));
        assert!(!b.fits(&entry("012345678a", &"v".repeat(19), 2)));
        let second = entry("012345678a", &"v".repeat(18), 2);
        b.push(&second).unwrap();
        let page = Bytes::copy_from_slice(b.finish());
        assert_eq!(page.len(), 64);
        assert_eq!(prefix_of(&page), b"012345678");
        assert_eq!(decode(page).unwrap(), vec![e, second]);
    }

    #[test]
    fn a_prefix_that_widens_a_suffix_length_is_priced_exactly() {
        // Two 130-byte keys sharing 129 bytes: one-byte suffixes. A third
        // that shares none of them gives every suffix 130 bytes, whose
        // length is a two-byte varint.
        let long = |first: u8, last: u8| [vec![first], vec![b'k'; 128], vec![last]].concat();
        let mut b = PageBuilder::new(512);
        for last in [b'a', b'b'] {
            b.push(&Entry::put(long(b'k', last), Vec::new(), 1))
                .unwrap();
        }
        // 10 + 1, then 3 × (2 + 1 + 1 + 130 + 2) = 408: 93 bytes left for
        // the value.
        let third = |value: usize| Entry::put(long(b'z', b'a'), vec![b'v'; value], 1);
        assert!(b.fits(&third(93)));
        assert!(!b.fits(&third(94)));
        b.push(&third(93)).unwrap();
        let page = Bytes::copy_from_slice(b.finish());
        assert_eq!(page[page.len() - 2 * 3 - 1], b'v', "the page is full");
        assert_eq!(decode(page).unwrap().len(), 3);
    }

    #[test]
    fn the_prefix_shrinks_as_keys_arrive_and_every_key_reads_back_whole() {
        // Each key shares less with the first than the one before it.
        let keys = ["abcdefgh", "abcdefgz", "abcdz", "abz", "b"];
        let entries: Vec<Entry> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| entry(k, &"v".repeat(i), i as u64))
            .collect();
        for n in 1..=keys.len() {
            let page = page_of(&entries[..n], 256);
            let want = [&b"abcdefgh"[..], b"abcdefg", b"abcd", b"ab", b""][n - 1];
            assert_eq!(prefix_of(&page), want, "{n} keys");
            assert_eq!(decode(page.clone()).unwrap(), entries[..n], "{n} keys");
            let mut cursor = PageCursor::new(page).unwrap();
            for e in &entries[..n] {
                assert_eq!(cursor.key(), Some(e.key.as_ref()));
                cursor.advance().unwrap();
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "65 535 pushes")]
    fn fits_stops_at_the_largest_count() {
        let e = entry("", "", 0); // 3 bytes and a 4-byte offset
        let mut b = PageBuilder::new(1 << 20);
        while b.fits(&e) {
            b.push(&e).unwrap();
        }
        assert_eq!(b.count(), u16::MAX);
        let page = Bytes::copy_from_slice(b.finish());
        assert_eq!(decode(page).unwrap().len(), u16::MAX as usize);
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut b = PageBuilder::new(64);
        let e = entry("key", &"v".repeat(100), 1);
        assert!(matches!(b.push(&e), Err(LsmError::EntryTooLarge { .. })));
    }

    #[test]
    fn every_entry_up_to_max_entry_len_fits_an_empty_page() {
        // At the limit, with the widest sequence number and each key
        // length the page admits: the worst physical header fits. (Miri
        // skips the wide pages: hashing them is its slowest work here.)
        let sizes: &[usize] = match cfg!(miri) {
            true => &[64, 256, 4096],
            false => &[64, 256, 4096, 1 << 16, (1 << 16) + 1, 1 << 17],
        };
        for &page_size in sizes {
            let max = max_entry_len(page_size);
            let longest_key = (max - ENTRY_HEADER_LEN).min(u16::MAX as usize);
            let klens = [0, 1, 127, 128, longest_key / 2, longest_key];
            for klen in klens.into_iter().filter(|&k| k <= longest_key) {
                let value = vec![b'v'; max - ENTRY_HEADER_LEN - klen];
                for seq in [0, u64::MAX] {
                    let e = Entry::put(vec![b'k'; klen], value.clone(), seq);
                    assert_eq!(e.encoded_len(), max);
                    let mut b = PageBuilder::new(page_size);
                    assert!(b.fits(&e), "page {page_size}, key {klen}, seq {seq}");
                    b.push(&e).unwrap();
                    let page = Bytes::copy_from_slice(b.finish());
                    assert_eq!(prefix_of(&page), e.key.as_ref(), "the key is the prefix");
                    assert_eq!(decode(page).unwrap(), vec![e]);
                }
            }
        }
        // The limit covers the widest varints of a one-entry page: the
        // prefix length, the empty suffix's length, the value length and
        // the sequence number.
        assert_eq!(max_entry_len(4096), 4096 - 10 - 2 - 4);
        assert_eq!(max_entry_len(1 << 17), (1 << 17) - 10 - 4 - 4);
    }

    #[test]
    fn huge_key_rejected() {
        let mut b = PageBuilder::new(1 << 20);
        let e = Entry::put(vec![0u8; 70_000], Vec::new(), 1);
        assert!(matches!(b.push(&e), Err(LsmError::KeyTooLarge(70_000))));
    }

    #[test]
    fn pages_over_64_kib_take_four_byte_offsets() {
        let entries: Vec<Entry> = (0..30)
            .map(|i| entry(&format!("k{i:03}"), &"v".repeat(2000), i))
            .collect();
        let page = page_of(&entries, (1 << 16) + 1);
        // Entry 0 starts past the prefix "k0" and its length.
        let last = page.len() - 4;
        assert_eq!(
            u32::from_le_bytes(page[last..].try_into().unwrap()),
            PAGE_HEADER_LEN as u32 + 3
        );
        for e in &entries {
            let got = PageCursor::new(page.clone()).unwrap().search(&e.key);
            assert_eq!(got.unwrap(), Some(hit(e)));
        }
        assert_eq!(decode(page).unwrap(), entries);
    }

    #[test]
    fn finish_resets_builder() {
        let mut b = PageBuilder::new(128);
        assert_eq!(b.last_key(), b"");
        b.push(&entry("a", "1", 1)).unwrap();
        assert_eq!(b.last_key(), b"a");
        let first = b.finish().to_vec();
        assert!(b.is_empty());
        assert_eq!(b.last_key(), b"");
        b.push(&entry("b", "2", 2)).unwrap();
        let second = b.finish().to_vec();
        assert_ne!(first, second);
        assert_eq!(decode(Bytes::from(second)).unwrap()[0].key.as_ref(), b"b");
        // A page of fewer entries than the last one leaves no stale offset,
        // and a shorter prefix no stale prefix byte.
        b.push(&entry("c", "3", 3)).unwrap();
        b.push(&entry("d", "4", 4)).unwrap();
        b.finish();
        b.push(&entry("eee", "5", 5)).unwrap();
        b.push(&entry("eef", "6", 6)).unwrap();
        assert_eq!(b.last_key(), b"eef");
        let page = Bytes::copy_from_slice(b.finish());
        assert!(page[..slot(&page, 1)].ends_with(&[0, 0]));
        assert_eq!(
            decode(page).unwrap(),
            vec![entry("eee", "5", 5), entry("eef", "6", 6)]
        );
    }

    #[test]
    fn push_takes_borrowed_views() {
        let mut b = PageBuilder::new(128);
        let view = EntryRef {
            key: b"k",
            value: b"v",
            seq: 3,
            kind: EntryKind::Put,
        };
        assert!(b.fits(view));
        b.push(view).unwrap();
        assert_eq!(
            decode(Bytes::copy_from_slice(b.finish())).unwrap(),
            vec![entry("k", "v", 3)]
        );
    }

    #[test]
    fn cursor_rejects_corrupt_pages() {
        // Count says 1 but no entry bytes follow.
        let mut page = vec![0u8; 64];
        page[0..2].copy_from_slice(&1u16.to_le_bytes());
        page.truncate(3);
        assert!(PageCursor::new(Bytes::from(page)).is_err());

        // The cursor does not hash — the disk did (`check`, below) — but
        // it bounds-checks the prefix, and every entry header and offset
        // it reaches. The page is [prefix len 1]["k"], then the one
        // entry's header [suffix len 0][value len 1][seq 1 << 2 | kind].
        let good = page_of(&[entry("k", "v", 1)], 64).to_vec();
        let first = PAGE_HEADER_LEN + 2;
        let tag = first + 2;
        assert_eq!(good[tag], 1 << 2);
        // Kinds 2 and 3 are none: only puts and tombstones exist.
        for kind in [2, 3] {
            let mut bad_kind = good.clone();
            bad_kind[tag] |= kind;
            let err = PageCursor::new(Bytes::from(bad_kind)).err().unwrap();
            assert!(err.to_string().contains("kind"), "{err}");
        }
        // A header whose varints never end inside the entry area.
        let mut endless = good.clone();
        let area_end = slot(&good, 0);
        endless[first..area_end].fill(0x80);
        let err = PageCursor::new(Bytes::from(endless)).err().unwrap();
        assert!(err.to_string().contains("header truncated"), "{err}");
        // So does a prefix length.
        let mut endless = good.clone();
        endless[PAGE_HEADER_LEN..area_end].fill(0x80);
        let err = PageCursor::new(Bytes::from(endless)).err().unwrap();
        assert!(err.to_string().contains("prefix length truncated"), "{err}");
        // A value running past the entry area, into the offsets.
        let mut long_body = good.clone();
        long_body[first + 1] = 0x7f;
        let err = PageCursor::new(Bytes::from(long_body)).err().unwrap();
        assert!(err.to_string().contains("body truncated"), "{err}");
        // A count whose offsets would not fit the page.
        let mut inflated = good.clone();
        inflated[0..2].copy_from_slice(&40u16.to_le_bytes());
        let err = PageCursor::new(Bytes::from(inflated)).err().unwrap();
        assert!(err.to_string().contains("overflow"), "{err}");
        // A count one too high: the extra offset is the zero padding,
        // which points outside the entry area.
        let mut one_more = good.clone();
        one_more[0..2].copy_from_slice(&2u16.to_le_bytes());
        let err = PageCursor::new(Bytes::from(one_more))
            .unwrap()
            .search(b"kz")
            .unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
        // An offset past the entry area, into the prefix, or into the page
        // header.
        for off in [area_end as u16, 63, 11, 9] {
            let mut stray = good.clone();
            stray[area_end..area_end + 2].copy_from_slice(&off.to_le_bytes());
            let err = PageCursor::new(Bytes::from(stray))
                .unwrap()
                .search(b"k")
                .unwrap_err();
            assert!(err.to_string().contains("outside"), "offset {off}: {err}");
        }
        // A malformed *later* entry surfaces when the cursor steps onto it.
        // The keys share nothing: [prefix len 0], then 5 bytes of entry.
        let two = page_of(&[entry("a", "1", 1), entry("b", "2", 2)], 64).to_vec();
        let mut second_bad = two.clone();
        second_bad[PAGE_HEADER_LEN + 1 + 5 + 2] |= 3; // second entry's kind
        let mut cursor = PageCursor::new(Bytes::from(second_bad)).unwrap();
        assert_eq!(cursor.key(), Some(b"a".as_slice()));
        assert!(cursor.advance().is_err());
        // A failed step leaves the cursor, and its owned entry, where they
        // were.
        assert_eq!(cursor.key(), Some(b"a".as_slice()));
        assert_eq!(cursor.to_entry(), Some(entry("a", "1", 1)));
    }

    #[test]
    fn cursor_rejects_a_prefix_past_the_entry_area() {
        let good = page_of(&[entry("k", "v", 1)], 64).to_vec();
        let area_end = slot(&good, 0);
        // A prefix ending where the offsets start is a prefix: what fails
        // is the entry it leaves no room for.
        let mut page = good.clone();
        page[PAGE_HEADER_LEN] = (area_end - PAGE_HEADER_LEN - 1) as u8;
        let err = PageCursor::new(Bytes::from(page)).err().unwrap();
        assert!(err.to_string().contains("header truncated"), "{err}");
        // One byte longer, it reaches the offsets.
        for len in [area_end - PAGE_HEADER_LEN, 0x7f] {
            let mut page = good.clone();
            page[PAGE_HEADER_LEN] = len as u8;
            let err = PageCursor::new(Bytes::from(page)).err().unwrap();
            assert!(
                err.to_string().contains("runs past the entry area"),
                "{len}: {err}"
            );
        }
    }

    #[test]
    fn cursor_rejects_a_prefix_longer_than_a_key() {
        // Two keys of 60 200 bytes sharing 60 000, on a page wide enough to
        // hold a prefix longer than any key.
        let key = |tail: u8| [vec![b'k'; 60_000], vec![tail; 200]].concat();
        let entries = [
            Entry::put(key(b'a'), b"1".to_vec(), 1),
            Entry::put(key(b'b'), b"2".to_vec(), 2),
        ];
        let good = page_of(&entries, 1 << 17).to_vec();
        assert_eq!(decode(Bytes::from(good.clone())).unwrap(), entries);
        // [prefix len: 3 bytes][prefix], then entry 0's suffix length.
        let suffix_len = PAGE_HEADER_LEN + 3 + 60_000;
        assert_eq!(&good[suffix_len..suffix_len + 2], &[0xc8, 0x01]); // 200
                                                                      // A prefix of 70 000 bytes: inside the page, longer than a key.
        let mut long_prefix = good.clone();
        put_varint(&mut long_prefix[PAGE_HEADER_LEN..], 70_000);
        let err = PageCursor::new(Bytes::from(long_prefix)).err().unwrap();
        assert!(err.to_string().contains("longer than a key"), "{err}");
        // A suffix of 6 000 bytes, inside the page: with the prefix, a key
        // longer than a key can be.
        let mut long_key = good.clone();
        put_varint(&mut long_key[suffix_len..], 6_000);
        let err = PageCursor::new(Bytes::from(long_key)).err().unwrap();
        assert!(err.to_string().contains("longer than a key"), "{err}");
    }

    #[test]
    fn cursor_rejects_a_suffix_that_overruns() {
        // [prefix len 0], then "a" and "b"'s entries: [1][1][tag][key][value].
        let two = page_of(&[entry("a", "1", 1), entry("b", "2", 2)], 64).to_vec();
        let second = PAGE_HEADER_LEN + 1 + 5;
        for (at, name) in [(PAGE_HEADER_LEN + 1, "first"), (second, "second")] {
            let mut page = two.clone();
            page[at] = 0x7f; // a 127-byte suffix on a 64-byte page
            let walked = PageCursor::new(Bytes::from(page)).and_then(|mut c| {
                c.advance()?;
                c.advance()
            });
            let err = walked.unwrap_err();
            assert!(err.to_string().contains("body truncated"), "{name}: {err}");
        }
        // A search reaches the second suffix through the offsets, and
        // refuses it too.
        let mut page = two.clone();
        page[second] = 0x7f;
        let err = PageCursor::new(Bytes::from(page))
            .unwrap()
            .search(b"b")
            .unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn check_rejects_any_flipped_bit() {
        let good = page_of(&[entry("k", "v", 1)], 64).to_vec();
        assert_eq!(check(&good), Ok(()));
        // Every bit of the page, the count's, the checksum's, the prefix's
        // and the offsets' included.
        for bit in 0..good.len() * 8 {
            let mut page = good.clone();
            page[bit / 8] ^= 1 << (bit % 8);
            let err = check(&page).unwrap_err();
            assert!(err.contains("checksum"), "bit {bit}: {err}");
        }
        assert!(check(&good[..PAGE_HEADER_LEN - 1]).is_err());
        // Sealing is what makes a page pass.
        let mut page = good.clone();
        page[PAGE_HEADER_LEN] ^= 1;
        seal(&mut page);
        assert_eq!(check(&page), Ok(()));
    }

    #[test]
    #[cfg_attr(miri, ignore = "32 768 hashes of a 4 KiB page")]
    fn check_rejects_any_flipped_bit_of_a_full_page() {
        // A full ledger-shaped page: every bit of its 4 KiB, across all
        // of the hash's stripes and blocks and the padded last stripe.
        let key = |i: u64| format!("{:016}", 4_321_098_765_432_170 + 3 * i).into_bytes();
        let (count, page) = fill((0..100).map(|i| ledger_entry(key(i))));
        assert_eq!(count, 33);
        let good = page.to_vec();
        assert_eq!(check(&good), Ok(()));
        let mut page = good.clone();
        for bit in 0..good.len() * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert!(check(&page).is_err(), "bit {bit}");
            page[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn checksum_pinned_vectors() {
        // The page checksum is part of the on-disk format: these pin it
        // for the 4 086-byte body of a 4 KiB page and the 54-byte body of
        // a 64-byte one, at two counts (vectors produced by this
        // implementation, asserted stable forever).
        let page = |size: usize, count: u16| {
            let mut page: Vec<u8> = (0..size as u32)
                .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 11) as u8)
                .collect();
            page[..2].copy_from_slice(&count.to_le_bytes());
            page
        };
        assert_eq!(checksum(&page(4096, 0)), 0xbb56_3a1d_78ea_c1f2);
        assert_eq!(checksum(&page(4096, 33)), 0x6c46_2895_123a_fecd);
        assert_eq!(checksum(&page(64, 0)), 0x8c7f_6f75_9c43_deac);
        assert_eq!(checksum(&page(64, 33)), 0x40f5_fa17_7801_8d17);
    }

    /// Drives `page` every way the engine does — a lookup's [`search`],
    /// and a cursor's `search`, `seek`, and walk by `next_entry` — until
    /// the page ends or a call errs. An `Err` anywhere is fine; a panic fails the property.
    fn walk(page: &[u8], probe: &[u8]) {
        let page = Bytes::copy_from_slice(page);
        let _ = search(page.clone(), probe);
        if let Ok(cursor) = PageCursor::new(page.clone()) {
            let _ = cursor.search(probe);
        }
        if let Ok(mut cursor) = PageCursor::new(page.clone()) {
            if cursor.seek(probe).is_ok() {
                let _ = (cursor.key(), cursor.to_entry());
            }
        }
        let Ok(mut cursor) = PageCursor::new(page) else {
            return;
        };
        while cursor.remaining() > 0 {
            let _ = (cursor.key(), cursor.entry(), cursor.seq());
            if cursor.next_entry().is_err() {
                // A failed step leaves the cursor where it was.
                let _ = (cursor.key(), cursor.to_entry());
                return;
            }
        }
    }

    /// The newest version of `key` among `entries`, found by a linear walk.
    fn linear_search(entries: &[Entry], key: &[u8]) -> Option<Hit> {
        entries.iter().find(|e| e.key.as_ref() == key).map(hit)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn cursor_never_panics_on_arbitrary_bytes(
            page in proptest::collection::vec(proptest::any::<u8>(), 0..160),
            probe in proptest::collection::vec(proptest::any::<u8>(), 0..4),
        ) {
            walk(&page, &probe);
        }

        #[test]
        fn cursor_never_panics_on_mutated_pages(
            prefix in proptest::collection::vec(proptest::any::<u8>(), 0..4),
            kvs in proptest::collection::vec(
                (
                    proptest::collection::vec(proptest::any::<u8>(), 0..6),
                    proptest::collection::vec(proptest::any::<u8>(), 0..12),
                ),
                0..8,
            ),
            mutation in 0u8..6,
            at in proptest::any::<u16>(),
            byte in proptest::any::<u8>(),
        ) {
            // Keys sharing a prefix, so pages have one to mutate.
            let mut b = PageBuilder::new(128);
            for (i, (k, v)) in kvs.iter().enumerate() {
                let e = Entry::put([&prefix[..], k].concat(), v.clone(), i as u64);
                if b.fits(&e) {
                    b.push(&e).unwrap();
                }
            }
            let mut page = b.finish().to_vec();
            let count = u16::from_le_bytes([page[0], page[1]]);
            let prefix_len = page[PAGE_HEADER_LEN] as usize; // < 128: one byte
            match mutation {
                0 => page.truncate(at as usize % page.len()),
                1 => {
                    let at = at as usize % page.len();
                    page[at] ^= 1 << (byte % 8)
                }
                2 => {
                    let inflated = count.saturating_add(1 + at);
                    page[0..2].copy_from_slice(&inflated.to_le_bytes());
                }
                // Any offset of the array, set to any value.
                3 if count > 0 => {
                    let i = slot(&page, byte as usize % count as usize);
                    page[i..i + 2].copy_from_slice(&(at % 256).to_le_bytes());
                }
                // The prefix length, set to any value.
                4 => page[PAGE_HEADER_LEN] = byte,
                // Any byte of the prefix, or the first byte after it.
                5 => page[PAGE_HEADER_LEN + 1 + at as usize % (prefix_len + 1)] = byte,
                _ => {}
            }
            walk(&page, &[byte]);
            walk(&page, &[&prefix[..], &[byte]].concat());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 256 }))]

        #[test]
        fn search_agrees_with_a_linear_walk(
            keys in proptest::collection::vec(
                (proptest::collection::vec(0u8..4, 0..4), 1usize..4),
                0..40,
            ),
            probes in proptest::collection::vec(
                proptest::collection::vec(0u8..4, 0..5),
                0..8,
            ),
            page_size in 64usize..512,
        ) {
            // Distinct keys, each in one to three versions: a prefix of
            // them in internal order, as much as the page holds.
            let mut keys = keys.clone();
            keys.sort();
            keys.dedup_by(|a, b| a.0 == b.0);
            let mut entries = Vec::new();
            for (key, versions) in &keys {
                for v in 0..*versions {
                    let seq = entries.len() as u64;
                    entries.push(match v % 2 {
                        0 => Entry::put(key.clone(), vec![b'v'; key.len() * 3], seq),
                        _ => Entry::tombstone(key.clone(), seq),
                    });
                }
            }
            entries.sort_by(Entry::internal_cmp);
            check_search(&entries, &probes, page_size)?;
        }
    }

    /// Builds a page of as many of `entries` (in internal order) as fit
    /// `page_size`, then holds a lookup's [`search`], a cursor's `search`
    /// — from the first entry and from the second — and `seek` to a linear
    /// walk, for every probe and every key held.
    fn check_search(
        entries: &[Entry],
        probes: &[Vec<u8>],
        page_size: usize,
    ) -> std::result::Result<(), proptest::prelude::TestCaseError> {
        let mut b = PageBuilder::new(page_size);
        let mut fit = 0;
        while fit < entries.len() && b.fits(&entries[fit]) {
            b.push(&entries[fit]).unwrap();
            fit += 1;
        }
        let entries = &entries[..fit];
        let page = Bytes::copy_from_slice(b.finish());
        let held = entries.iter().map(|e| e.key.to_vec());
        for probe in probes.iter().cloned().chain(held) {
            let want = linear_search(entries, &probe);
            let got = PageCursor::new(page.clone())
                .unwrap()
                .search(&probe)
                .unwrap();
            proptest::prop_assert_eq!(&got, &want);
            // A lookup's search, which opens no cursor, finds the same.
            proptest::prop_assert_eq!(search(page.clone(), &probe).unwrap(), want);
            // A seek lands on the first entry not below the probe.
            let mut cursor = PageCursor::new(page.clone()).unwrap();
            cursor.seek(&probe).unwrap();
            let first = entries.iter().find(|e| e.key.as_ref() >= probe.as_slice());
            proptest::prop_assert_eq!(cursor.to_entry(), first.cloned());
        }
        // From a cursor stepped past its first entries, too.
        let mut cursor = PageCursor::new(page.clone()).unwrap();
        cursor.advance().unwrap();
        if let Some(first) = entries.first() {
            let rest = &entries[1..];
            let got = cursor.search(&first.key).unwrap();
            proptest::prop_assert_eq!(got, linear_search(rest, &first.key));
        }
        Ok(())
    }

    /// Keys of one of the shapes the prefix has to get right, `n` of them,
    /// distinct unless the shape repeats one, in ascending order.
    fn shaped_keys(shape: u8, n: usize, seed: u8) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| match shape {
                // Share nothing: each starts with a byte of its own.
                0 => vec![(2 * i) as u8, seed],
                // Share all but the last byte.
                1 => [&[seed; 7][..], &[(2 * i) as u8]].concat(),
                // Each a prefix of the next.
                2 => vec![seed; i],
                // One key, again and again.
                3 => vec![seed; 3],
                // As long as a key can be, all but the last byte shared.
                _ => [vec![seed; MAX_KEY_LEN - 1], vec![(2 * i) as u8]].concat(),
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 128 }))]

        #[test]
        fn search_agrees_with_a_linear_walk_on_shaped_keys(
            // Miri skips the longest keys: comparing them is its slowest
            // work here.
            shape in 0u8..if cfg!(miri) { 4 } else { 5 },
            n in 1usize..40,
            seed in 1u8..250,
            values in proptest::collection::vec(0usize..24, 40..41),
            page_size in 64usize..512,
        ) {
            let keys = shaped_keys(shape, n, seed);
            // Newest version first where one key repeats.
            let entries: Vec<Entry> = keys
                .iter()
                .enumerate()
                .map(|(i, key)| {
                    let seq = (n - i) as u64;
                    match values[i] {
                        0 => Entry::tombstone(key.clone(), seq),
                        len => Entry::put(key.clone(), vec![b'v'; len], seq),
                    }
                })
                .collect();
            // Probes around every key: shorter, longer, one byte off, and
            // the empty key.
            let mut probes = vec![Vec::new()];
            for key in &keys {
                let mut below = key.clone();
                if let Some(last) = below.last_mut() {
                    *last = last.wrapping_sub(1);
                }
                probes.extend([
                    below,
                    [&key[..], &[0]].concat(),
                    key[..key.len() / 2].to_vec(),
                    [&key[..key.len().saturating_sub(1)], &[255]].concat(),
                ]);
            }
            let page_size = if shape == 4 { (1 << 16) + page_size } else { page_size };
            check_search(&entries, &probes, page_size)?;
        }
    }

    #[test]
    fn empty_page_decodes_empty() {
        let page = page_of(&[], 32);
        assert_eq!(page[PAGE_HEADER_LEN], 0, "a zero prefix length");
        let cursor = PageCursor::new(page).unwrap();
        assert_eq!(cursor.remaining(), 0);
        assert!(cursor.key().is_none() && cursor.entry().is_none());
        assert!(cursor.search(b"k").unwrap().is_none());
        assert!(PageCursor::empty().search(b"k").unwrap().is_none());
    }

    #[test]
    fn cursor_reads_entries_in_place_then_owned() {
        let entries = vec![
            entry("alpha", "1", 10),
            entry("beta", "2", 11),
            Entry::tombstone(b"gamma".to_vec(), 12),
        ];
        let mut cursor = PageCursor::new(page_of(&entries, 256)).unwrap();
        assert_eq!(cursor.remaining(), 3);
        for want in &entries {
            // The borrowed view, the owned entry and the source all agree.
            assert_eq!(cursor.key(), Some(want.key.as_ref()));
            assert_eq!(cursor.entry(), Some(want.into()));
            assert_eq!(cursor.to_entry().as_ref(), Some(want));
            cursor.advance().unwrap();
        }
        assert_eq!(cursor.remaining(), 0);
        assert!(cursor.key().is_none() && cursor.to_entry().is_none());
        cursor.advance().unwrap();
        assert!(cursor.next_entry().unwrap().is_none());
    }

    #[test]
    fn owned_rows_share_one_block_a_page() {
        let entries: Vec<Entry> = (0..20)
            .map(|i| entry(&format!("key{i:04}"), "v", i))
            .collect();
        let page = page_of(&entries, 512);
        let mut cursor = PageCursor::new(page.clone()).unwrap();
        cursor.advance().unwrap();
        let owned: Vec<Entry> = std::iter::from_fn(|| cursor.next_entry().unwrap()).collect();
        assert_eq!(owned, entries[1..]);
        // Every row is two slices of one block, built on the first entry
        // handed out: from there on, each key whole, then its value.
        let block = owned[0].key.as_ptr();
        for (i, e) in owned.iter().enumerate() {
            assert_eq!(e.key.as_ptr(), block.wrapping_add(8 * i), "key {i}");
            assert_eq!(e.value.as_ptr(), block.wrapping_add(8 * i + 7), "value {i}");
        }
        // A reader bounded at "key0010" gets a block of the rows below the
        // bound; each row past it gets a block of its own.
        let mut cursor = PageCursor::new(page).unwrap();
        let bounded: Vec<Entry> = (0..12)
            .map(|_| {
                let row = cursor.to_entry_below(Some(b"key0010")).unwrap();
                cursor.advance().unwrap();
                row
            })
            .collect();
        assert_eq!(bounded, entries[..12]);
        let starts: Vec<usize> = (1..12)
            .filter(|&i| bounded[i].key.as_ptr() != bounded[i - 1].key.as_ptr().wrapping_add(8))
            .collect();
        assert_eq!(starts, [10, 11]);
        // Rows that would outgrow two pages take a block per two pages'
        // worth: 200-byte keys sharing all but one byte, 25 to a 512-byte
        // page, five to a block.
        let long = |i: u8| Entry::put([vec![b'k'; 199], vec![i]].concat(), Vec::new(), 1);
        let entries: Vec<Entry> = (0..25).map(long).collect();
        let page = page_of(&entries, 512);
        let mut cursor = PageCursor::new(page).unwrap();
        let owned: Vec<Entry> = std::iter::from_fn(|| cursor.next_entry().unwrap()).collect();
        assert_eq!(owned, entries);
        let blocks = owned
            .windows(2)
            .filter(|w| w[1].key.as_ptr() != w[0].key.as_ptr().wrapping_add(200))
            .count();
        assert_eq!(
            blocks + 1,
            25_usize.div_ceil(2 * 512 / 200),
            "blocks of five rows"
        );
    }

    #[test]
    fn long_keys_read_back_whole_past_the_inline_buffer() {
        // Keys on both sides of the inline length, with a prefix shorter
        // and one longer than it.
        for shared in [10, INLINE_KEY + 10] {
            let entries: Vec<Entry> = [INLINE_KEY - 1, INLINE_KEY, INLINE_KEY + 1, 300, 40]
                .iter()
                .enumerate()
                .map(|(i, &len)| {
                    let mut key = vec![b'k'; len.max(shared + 1)];
                    key[shared] = b'a' + i as u8;
                    Entry::put(key, vec![i as u8], i as u64)
                })
                .collect();
            let page = page_of(&entries, 2048);
            let mut cursor = PageCursor::new(page.clone()).unwrap();
            for want in &entries {
                assert_eq!(cursor.key(), Some(want.key.as_ref()), "shared {shared}");
                cursor.advance().unwrap();
            }
            assert_eq!(decode(page).unwrap(), entries, "shared {shared}");
        }
    }

    #[test]
    fn cursor_search_finds_newest_version() {
        // Internal order: key asc, seq desc — duplicates keep newest first.
        let entries = vec![
            entry("a", "new", 9),
            entry("a", "old", 3),
            entry("b", "x", 5),
            entry("d", "y", 7),
        ];
        let page = page_of(&entries, 256);
        for probe in [b"a".as_slice(), b"b", b"c", b"d", b"0", b"z"] {
            let want = entries.iter().find(|e| e.key.as_ref() == probe).map(hit);
            let got = PageCursor::new(page.clone())
                .unwrap()
                .search(probe)
                .unwrap();
            assert_eq!(want, got, "probe {probe:?}");
        }
    }
}
