//! Page encoding: how entries are packed into fixed-size disk pages.
//!
//! Layout of one page:
//!
//! ```text
//! [u16 entry_count][u64 checksum]
//! entry_count × [varint key_len][varint val_len][varint seq << 2 | kind][key][value]
//! [zero padding]
//! [offset array: entry_count × offset, entry 0's last, ending at the page end]
//! ```
//!
//! Varints are LEB128: seven bits a byte, low bits first, the high bit set
//! on every byte but the last. The third one packs the kind into the low
//! two bits of the sequence number; kinds 2 and 3 do not exist, so a bad
//! kind is still caught. An entry's header is 3 to 18 bytes: 3 + 5 + 10 for
//! a `u16` key length, a `u32` value length and a full 64-bit sequence
//! number. The ledger's 128-byte entries carry 6 against the logical
//! [`ENTRY_HEADER_LEN`] of 15.
//!
//! Entry `i`'s offset (where its header starts) sits `i + 1` slots before
//! the end of the page, so the builder writes it as the entry arrives. A
//! slot is a `u16` on pages up to 64 KiB and a `u32` above: the page size
//! picks the width, nothing configures it. One slot per entry, not one per
//! restart interval: at 2 bytes an entry, the ledger's page holds 30
//! entries (30 × (134 + 2) = 4 080 of 4 086 bytes), and a restart every
//! second entry would still hold 30 while making search decode entries
//! the offsets let it skip.
//!
//! Only pages see this encoding: every capacity count in the engine (the
//! buffer's bytes, a run's bytes, the spill rule, the WAL record) charges
//! an entry its logical size, [`Entry::encoded_len`], with a fixed 15-byte
//! header. So the tree — every flush, merge, level and run — does not
//! depend on how a page packs entries, only the number of pages each run
//! fills does.
//!
//! The checksum is XXH64 over everything after it (entries, padding and
//! offsets), seeded with both bytes of the count, so any bit flipped at
//! rest or in flight surfaces as a corruption error instead of wrong data.
//! [`PageBuilder::finish`] stamps it and [`check`] verifies it.
//!
//! A page is checked **once, where its bytes enter memory**: runs attach
//! [`check`] to their [`Disk`](monkey_storage::Disk),
//! which runs it on every physical read before the block cache may admit
//! the page — a cache hit is never re-hashed. [`PageCursor`] therefore
//! does not hash; it parses the header and bounds-checks every entry and
//! offset it reaches, which is all that stands between it and bytes that
//! did not come through a disk.
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

use crate::entry::{Entry, EntryKind, EntryRef, ENTRY_HEADER_LEN};
use crate::error::{LsmError, Result};
use bytes::Bytes;
use monkey_bloom::hash::xxh64;
use std::ops::Range;

const PAGE_SEED: u64 = 0x5041_4745_4D4F_4E4B; // "PAGEMONK"

/// Bytes of per-page header: entry count (u16) + checksum (u64).
pub const PAGE_HEADER_LEN: usize = 2 + 8;

/// The longest entry header: a `u16` key length (3 varint bytes), a `u32`
/// value length (5) and a 64-bit sequence number with its kind (10).
const MAX_ENTRY_HEADER_LEN: usize = 3 + 5 + 10;

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
/// and the most a varint header can take beyond the logical one.
pub fn max_entry_len(page_size: usize) -> usize {
    page_size.saturating_sub(
        PAGE_HEADER_LEN + offset_width(page_size) + MAX_ENTRY_HEADER_LEN - ENTRY_HEADER_LEN,
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

/// Bytes `entry` takes in the page's entry area, header included.
#[inline]
fn entry_len(entry: EntryRef<'_>) -> usize {
    let (klen, vlen) = (entry.key.len(), entry.value.len());
    varint_len(klen as u64) + varint_len(vlen as u64) + seq_kind_len(entry.seq) + klen + vlen
}

/// An in-construction page buffer. Entries arrive as borrowed views
/// (`&Entry` converts) and are copied straight into the page, their
/// offsets into the array at its tail.
///
/// The builder owns one page-sized buffer for its whole life: a finished
/// page is lent out of it, and the next page is built over the same bytes.
pub struct PageBuilder {
    /// Always one page long; `buf[..len]` holds the header and entries so
    /// far, the last `count` offset slots their offsets.
    buf: Vec<u8>,
    len: usize,
    count: u16,
    /// Bytes of one offset slot.
    width: usize,
    /// Where the most recently pushed key sits in `buf`.
    last_key: Range<usize>,
}

impl PageBuilder {
    /// Starts an empty page of `page_size` bytes.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > PAGE_HEADER_LEN, "page too small: {page_size}");
        Self {
            buf: vec![0; page_size],
            len: PAGE_HEADER_LEN, // count and checksum are stamped in finish()
            count: 0,
            width: offset_width(page_size),
            last_key: 0..0,
        }
    }

    /// Whether an entry taking `len` bytes and one more offset slot fits.
    #[inline]
    fn room_for(&self, len: usize) -> bool {
        let slots = (self.count as usize + 1) * self.width;
        self.count < u16::MAX && self.len + len + slots <= self.buf.len()
    }

    /// Whether `entry` fits in the remaining space.
    pub fn fits<'a>(&self, entry: impl Into<EntryRef<'a>>) -> bool {
        self.room_for(entry_len(entry.into()))
    }

    /// Number of entries appended so far.
    pub fn count(&self) -> u16 {
        self.count
    }

    /// Appends an entry.
    ///
    /// Returns [`LsmError::EntryTooLarge`] if the entry can never fit in an
    /// empty page, [`LsmError::KeyTooLarge`] for keys over the u16 limit.
    /// Callers check [`fits`](Self::fits) first to close full pages; a push
    /// that does not fit a page already holding entries panics.
    pub fn push<'a>(&mut self, entry: impl Into<EntryRef<'a>>) -> Result<()> {
        let entry = entry.into();
        if entry.key.len() > u16::MAX as usize {
            return Err(LsmError::KeyTooLarge(entry.key.len()));
        }
        let mut header = [0u8; MAX_ENTRY_HEADER_LEN];
        let mut at = put_varint(&mut header, entry.key.len() as u64);
        at += put_varint(&mut header[at..], entry.value.len() as u64);
        at += put_seq_kind(&mut header[at..], entry.seq, entry.kind);
        let header = &header[..at];
        if !self.room_for(header.len() + entry.key.len() + entry.value.len()) {
            assert!(self.is_empty(), "caller must close full pages first");
            return Err(LsmError::EntryTooLarge {
                encoded: entry.encoded_len(),
                max: max_entry_len(self.buf.len()),
            });
        }
        let start = self.len;
        let key = start + header.len();
        let value = key + entry.key.len();
        self.len = value + entry.value.len();
        self.buf[start..key].copy_from_slice(header);
        self.buf[key..value].copy_from_slice(entry.key);
        self.buf[value..self.len].copy_from_slice(entry.value);
        self.last_key = key..value;
        self.count += 1;
        let slot = self.buf.len() - self.count as usize * self.width;
        let slot = &mut self.buf[slot..slot + self.width];
        match self.width {
            2 => slot.copy_from_slice(&(start as u16).to_le_bytes()),
            _ => slot.copy_from_slice(&(start as u32).to_le_bytes()),
        }
        Ok(())
    }

    /// True when no entries have been appended.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The key of the most recently appended entry, borrowed from the page
    /// under construction (empty on an empty page).
    pub fn last_key(&self) -> &[u8] {
        &self.buf[self.last_key.clone()]
    }

    /// Zeroes the gap between the entries and the offsets, stamps count
    /// and checksum, and lends the finished page, leaving the builder
    /// empty: the next [`push`](Self::push) starts a new page over the
    /// same buffer.
    pub fn finish(&mut self) -> &[u8] {
        let offsets = self.buf.len() - self.count as usize * self.width;
        let page = &mut self.buf;
        page[self.len..offsets].fill(0);
        page[0..2].copy_from_slice(&self.count.to_le_bytes());
        seal(page);
        self.len = PAGE_HEADER_LEN;
        self.count = 0;
        self.last_key = 0..0;
        page
    }
}

/// The checksum of a page: XXH64 of everything after the header, seeded
/// with the count it does not cover.
fn checksum(page: &[u8]) -> u64 {
    let count = u16::from_le_bytes([page[0], page[1]]);
    xxh64(&page[PAGE_HEADER_LEN..], PAGE_SEED ^ count as u64)
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

/// A cursor positioned on one entry of an encoded page. Opening it parses
/// the page header; each step validates one entry header against the
/// page's entry area. The checksum is not its business (see the module
/// doc). The entry under the cursor is read **borrowed from the page
/// bytes** ([`key`](Self::key), [`entry`](Self::entry)) — no `Bytes`
/// refcount traffic, no copies — and only [`to_entry`](Self::to_entry) /
/// [`next_entry`](Self::next_entry) build an owned [`Entry`], whose key
/// and value are `Bytes` slices of the page buffer.
///
/// Point lookups ([`search`](Self::search)), scans, merges and recovery
/// all read pages through this one type.
pub struct PageCursor {
    page: Bytes,
    /// End of the entry area: where the offset array starts.
    end: usize,
    /// Offset of the current entry's key; its value follows it.
    key: usize,
    klen: usize,
    vlen: usize,
    seq: u64,
    kind: EntryKind,
    /// Entries from the current one on; 0 = past the end.
    remaining: usize,
}

impl PageCursor {
    /// Opens a cursor on the page's first entry.
    pub fn new(page: Bytes) -> Result<Self> {
        let Some(header) = page.get(..PAGE_HEADER_LEN) else {
            return Err(LsmError::Corruption("page shorter than header".into()));
        };
        let count = u16::from_le_bytes([header[0], header[1]]) as usize;
        let Some(end) = (page.len() - PAGE_HEADER_LEN)
            .checked_sub(count * offset_width(page.len()))
            .map(|area| PAGE_HEADER_LEN + area)
        else {
            return Err(LsmError::Corruption(format!(
                "{count} offsets overflow a page of {} bytes",
                page.len()
            )));
        };
        let mut cursor = Self {
            page,
            end,
            ..Self::empty()
        };
        if count > 0 {
            cursor.load(PAGE_HEADER_LEN)?;
            cursor.remaining = count;
        }
        Ok(cursor)
    }

    /// A cursor over nothing (and holding nothing).
    pub(crate) fn empty() -> Self {
        Self {
            page: Bytes::new(),
            end: 0,
            key: 0,
            klen: 0,
            vlen: 0,
            seq: 0,
            kind: EntryKind::Put,
            remaining: 0,
        }
    }

    /// Entries from the current one on.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The current entry's key, borrowed from the page; `None` past the end.
    #[inline]
    pub fn key(&self) -> Option<&[u8]> {
        (self.remaining > 0).then(|| &self.page[self.key_range()])
    }

    /// The current entry's sequence number (meaningless past the end).
    #[inline]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The current entry, borrowed from the page; `None` past the end.
    #[inline]
    pub fn entry(&self) -> Option<EntryRef<'_>> {
        (self.remaining > 0).then(|| {
            let body = &self.page[self.key..][..self.klen + self.vlen];
            let (key, value) = body.split_at(self.klen);
            EntryRef {
                key,
                value,
                seq: self.seq,
                kind: self.kind,
            }
        })
    }

    /// The current entry, owned: key and value are slices sharing the
    /// page buffer. `None` past the end.
    pub fn to_entry(&self) -> Option<Entry> {
        (self.remaining > 0).then(|| {
            let key = self.key_range();
            Entry {
                value: self.page.slice(key.end..key.end + self.vlen),
                key: self.page.slice(key),
                seq: self.seq,
                kind: self.kind,
            }
        })
    }

    /// Steps to the next entry, validating its header.
    pub fn advance(&mut self) -> Result<()> {
        if self.remaining > 1 {
            self.load(self.key_range().end + self.vlen)?;
        }
        self.remaining = self.remaining.saturating_sub(1);
        Ok(())
    }

    /// Returns the current entry, owned, and steps past it.
    pub fn next_entry(&mut self) -> Result<Option<Entry>> {
        let entry = self.to_entry();
        self.advance()?;
        Ok(entry)
    }

    /// Finds the newest version of `key` among the entries from the
    /// current one on.
    ///
    /// Entries are in internal order (key asc, seq desc), so the first
    /// entry whose key is not below `key` is its newest version. The
    /// search finds it through the offset array, `√n` entries a jump and
    /// then one at a time (see the module doc). A step decodes only what
    /// it takes to find a key and compares it in place; the entry found
    /// is the only one decoded whole and built into an owned [`Entry`].
    pub fn search(mut self, key: &[u8]) -> Result<Option<Entry>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let count = u16::from_le_bytes([self.page[0], self.page[1]]) as usize;
        // Entries before `lo` sort below `key`.
        let mut lo = count - self.remaining;
        let stride = self.remaining.isqrt();
        while lo + stride <= count && self.key_of(lo + stride - 1)? < key {
            lo += stride;
        }
        while lo < count && self.key_of(lo)? < key {
            lo += 1;
        }
        if lo == count {
            return Ok(None);
        }
        self.load(self.offset_of(lo)?)?;
        Ok((self.page[self.key_range()] == *key)
            .then(|| self.to_entry())
            .flatten())
    }

    #[inline]
    fn key_range(&self) -> Range<usize> {
        self.key..self.key + self.klen
    }

    /// Where entry `i`'s header starts, from its offset slot, which must
    /// point into the entry area.
    #[inline]
    fn offset_of(&self, i: usize) -> Result<usize> {
        let width = offset_width(self.page.len());
        let slot = &self.page[self.page.len() - (i + 1) * width..][..width];
        let off = match width {
            2 => u16::from_le_bytes([slot[0], slot[1]]) as usize,
            _ => u32::from_le_bytes(slot.try_into().unwrap()) as usize,
        };
        if !(PAGE_HEADER_LEN..self.end).contains(&off) {
            return Err(LsmError::Corruption(format!(
                "offset {off} of entry {i} points outside the entry area"
            )));
        }
        Ok(off)
    }

    /// Entry `i`'s key: its length is read and the two varints after it
    /// skipped, nothing else of the entry decoded or checked.
    #[inline]
    fn key_of(&self, i: usize) -> Result<&[u8]> {
        let off = self.offset_of(i)?;
        let area = &self.page[..self.end];
        let mut pos = off;
        let key = read_varint(area, &mut pos).and_then(|klen| {
            for _ in 0..2 {
                while *area.get(pos)? >= 0x80 {
                    pos += 1;
                }
                pos += 1;
            }
            area.get(pos..pos.checked_add(klen as usize)?)
        });
        key.ok_or_else(|| LsmError::Corruption(format!("entry at page offset {off} truncated")))
    }

    /// Positions the cursor on the entry whose header starts at `off`,
    /// bounds-checking header and body against the entry area.
    fn load(&mut self, off: usize) -> Result<()> {
        let corrupt =
            |what: &str| LsmError::Corruption(format!("entry at page offset {off} {what}"));
        let area = &self.page[..self.end];
        let mut pos = off;
        let (Some(klen), Some(vlen), Some(&tag)) = (
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
        let (klen, vlen) = (klen as usize, vlen as usize);
        if klen
            .checked_add(vlen)
            .is_none_or(|body| body > self.end - pos)
        {
            return Err(corrupt("body truncated"));
        }
        (self.key, self.klen, self.vlen, self.seq, self.kind) = (pos, klen, vlen, seq, kind);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(k: &str, v: &str, seq: u64) -> Entry {
        Entry::put(k.as_bytes().to_vec(), v.as_bytes().to_vec(), seq)
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
            // The put's last header varint is that of `seq << 2 | 0`, up
            // to 66 bits wide.
            let (mut word, mut leb) = ((seq as u128) << 2, Vec::new());
            while word >= 0x80 {
                leb.push(word as u8 | 0x80);
                word >>= 7;
            }
            leb.push(word as u8);
            assert_eq!(seq_kind_len(seq), leb.len(), "seq {seq}");
            assert_eq!(&page[PAGE_HEADER_LEN + 2..][..leb.len()], leb, "seq {seq}");
        }
    }

    #[test]
    fn a_ledger_entry_takes_six_header_bytes_and_thirty_fit_a_page() {
        // 16-byte key, 112-byte value, a sequence number past 2^19.
        let e = Entry::put(vec![b'k'; 16], vec![b'v'; 112], 3_000_000);
        assert_eq!(entry_len((&e).into()), 6 + 128);
        let mut b = PageBuilder::new(4096);
        while b.fits(&e) {
            b.push(&e).unwrap();
        }
        assert_eq!(b.count(), 30);
    }

    #[test]
    fn fits_respects_page_size() {
        // 10 header bytes, then 3 + 24 for the entry and 2 for its offset:
        // 39 of 64 bytes.
        let mut b = PageBuilder::new(64);
        let e = entry("0123456789", "01234567890123", 1);
        assert!(b.fits(&e));
        b.push(&e).unwrap();
        assert!(!b.fits(&e), "second copy would exceed 64 bytes");
        // The fit is exact: 25 bytes are left for a 3-byte header, the
        // body and a 2-byte offset.
        assert!(b.fits(&entry("0123456789", &"v".repeat(10), 1)));
        assert!(!b.fits(&entry("0123456789", &"v".repeat(11), 1)));
        b.push(&entry("0123456789", &"v".repeat(10), 1)).unwrap();
        assert_eq!(b.finish().len(), 64);
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
                    assert_eq!(decode(page).unwrap(), vec![e]);
                }
            }
        }
        // The limit is tight where a header can be its widest.
        assert_eq!(max_entry_len(4096), 4096 - 10 - 2 - 3);
        assert_eq!(max_entry_len(1 << 17), (1 << 17) - 10 - 4 - 3);
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
        let last = page.len() - 4;
        assert_eq!(
            u32::from_le_bytes(page[last..].try_into().unwrap()),
            PAGE_HEADER_LEN as u32
        );
        for e in &entries {
            let got = PageCursor::new(page.clone()).unwrap().search(&e.key);
            assert_eq!(got.unwrap().as_ref(), Some(e));
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
        // A page of fewer entries than the last one leaves no stale offset.
        b.push(&entry("c", "3", 3)).unwrap();
        b.push(&entry("d", "4", 4)).unwrap();
        b.finish();
        b.push(&entry("e", "5", 5)).unwrap();
        let page = b.finish();
        assert!(page[..slot(page, 0)].ends_with(&[0, 0]));
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
        // it bounds-checks every entry header and offset it reaches. The
        // one entry's header is [klen 1][vlen 1][seq 1 << 2 | kind].
        let good = page_of(&[entry("k", "v", 1)], 64).to_vec();
        let tag = PAGE_HEADER_LEN + 2;
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
        endless[PAGE_HEADER_LEN..area_end].fill(0x80);
        let err = PageCursor::new(Bytes::from(endless)).err().unwrap();
        assert!(err.to_string().contains("header truncated"), "{err}");
        // A body running past the entry area, into the offsets.
        let mut long_body = good.clone();
        long_body[PAGE_HEADER_LEN + 1] = 0x7f;
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
            .search(b"z")
            .unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
        // An offset past the entry area, or into the page header.
        for off in [area_end as u16, 63, 9] {
            let mut stray = good.clone();
            stray[area_end..area_end + 2].copy_from_slice(&off.to_le_bytes());
            let err = PageCursor::new(Bytes::from(stray))
                .unwrap()
                .search(b"k")
                .unwrap_err();
            assert!(err.to_string().contains("outside"), "offset {off}: {err}");
        }
        // A malformed *later* entry surfaces when the cursor steps onto it.
        let two = page_of(&[entry("a", "1", 1), entry("b", "2", 2)], 64).to_vec();
        let mut second_bad = two.clone();
        second_bad[PAGE_HEADER_LEN + 5 + 2] |= 3; // second entry's kind
        let mut cursor = PageCursor::new(Bytes::from(second_bad)).unwrap();
        assert_eq!(cursor.key(), Some(b"a".as_slice()));
        assert!(cursor.advance().is_err());
    }

    #[test]
    fn check_rejects_any_flipped_bit() {
        let good = page_of(&[entry("k", "v", 1)], 64).to_vec();
        assert_eq!(check(&good), Ok(()));
        // Every bit of the page, the count's, the checksum's and the
        // offsets' included.
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

    /// Drives a cursor over `page` every way the engine does — `search`,
    /// and a walk by `next_entry` — until the page ends or a call errs.
    /// An `Err` anywhere is fine; a panic fails the property.
    fn walk(page: &[u8], probe: &[u8]) {
        let page = Bytes::copy_from_slice(page);
        if let Ok(cursor) = PageCursor::new(page.clone()) {
            let _ = cursor.search(probe);
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
    fn linear_search<'a>(entries: &'a [Entry], key: &[u8]) -> Option<&'a Entry> {
        entries.iter().find(|e| e.key.as_ref() == key)
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
            kvs in proptest::collection::vec(
                (
                    proptest::collection::vec(proptest::any::<u8>(), 0..6),
                    proptest::collection::vec(proptest::any::<u8>(), 0..12),
                ),
                0..8,
            ),
            mutation in 0u8..4,
            at in proptest::any::<u16>(),
            byte in proptest::any::<u8>(),
        ) {
            let mut b = PageBuilder::new(128);
            for (i, (k, v)) in kvs.iter().enumerate() {
                let e = Entry::put(k.clone(), v.clone(), i as u64);
                if b.fits(&e) {
                    b.push(&e).unwrap();
                }
            }
            let mut page = b.finish().to_vec();
            let count = u16::from_le_bytes([page[0], page[1]]);
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
                _ if count > 0 => {
                    let i = slot(&page, byte as usize % count as usize);
                    page[i..i + 2].copy_from_slice(&(at % 256).to_le_bytes());
                }
                _ => {}
            }
            walk(&page, &[byte]);
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
            let mut b = PageBuilder::new(page_size);
            let mut fit = 0;
            while fit < entries.len() && b.fits(&entries[fit]) {
                b.push(&entries[fit]).unwrap();
                fit += 1;
            }
            entries.truncate(fit);
            let page = Bytes::copy_from_slice(b.finish());
            let held = entries.iter().map(|e| e.key.to_vec());
            for probe in probes.iter().cloned().chain(held) {
                let got = PageCursor::new(page.clone()).unwrap().search(&probe).unwrap();
                proptest::prop_assert_eq!(got.as_ref(), linear_search(&entries, &probe));
            }
            // From a cursor stepped past its first entries, too.
            let mut cursor = PageCursor::new(page.clone()).unwrap();
            cursor.advance().unwrap();
            if let Some(first) = entries.first() {
                let rest = &entries[1..];
                let got = cursor.search(&first.key).unwrap();
                proptest::prop_assert_eq!(got.as_ref(), linear_search(rest, &first.key));
            }
        }
    }

    #[test]
    fn empty_page_decodes_empty() {
        let cursor = PageCursor::new(page_of(&[], 32)).unwrap();
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
            let want = entries.iter().find(|e| e.key.as_ref() == probe);
            let got = PageCursor::new(page.clone())
                .unwrap()
                .search(probe)
                .unwrap();
            assert_eq!(want, got.as_ref(), "probe {probe:?}");
        }
    }
}
