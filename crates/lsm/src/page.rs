//! Page encoding: how entries are packed into fixed-size disk pages.
//!
//! Layout of one page:
//!
//! ```text
//! [u16 entry_count][u64 checksum]
//! entry_count × [u16 key_len][u32 val_len][u64 seq][u8 kind][key][value]
//! [zero padding to the page size]
//! ```
//!
//! The checksum is XXH64 over everything after it (entries and padding),
//! seeded with both bytes of the count, so any bit flipped at rest or in
//! flight surfaces as a corruption error instead of wrong data.
//! [`PageBuilder::finish`] stamps it and [`check`] verifies it.
//!
//! A page is checked **once, where its bytes enter memory**: runs attach
//! [`check`] to their [`Disk`](monkey_storage::Disk),
//! which runs it on every physical read before the block cache may admit
//! the page — a cache hit is never re-hashed. [`PageCursor`] therefore
//! does not hash; it parses the header and bounds-checks every entry it
//! reaches, which is all that stands between it and bytes that did not
//! come through a disk.
//!
//! Entries within a page are sorted by internal order, so a point lookup
//! that has fenced to the right page finds its key with a binary search in
//! memory — the page read is the only I/O.

use crate::entry::{Entry, EntryKind, EntryRef, ENTRY_HEADER_LEN};
use crate::error::{LsmError, Result};
use bytes::Bytes;
use monkey_bloom::hash::xxh64;
use std::ops::Range;

const PAGE_SEED: u64 = 0x5041_4745_4D4F_4E4B; // "PAGEMONK"

/// Bytes of per-page header: entry count (u16) + checksum (u64).
pub const PAGE_HEADER_LEN: usize = 2 + 8;

/// Maximum encoded entry size for a given page size.
pub fn max_entry_len(page_size: usize) -> usize {
    page_size.saturating_sub(PAGE_HEADER_LEN)
}

/// An in-construction page buffer. Entries arrive as borrowed views
/// (`&Entry` converts) and are copied straight into the page.
///
/// The builder owns one page-sized buffer for its whole life: a finished
/// page is lent out of it, and the next page is built over the same bytes.
pub struct PageBuilder {
    /// Always one page long; `buf[..len]` is the page so far.
    buf: Vec<u8>,
    len: usize,
    count: u16,
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
            last_key: 0..0,
        }
    }

    /// Whether `entry` fits in the remaining space.
    pub fn fits<'a>(&self, entry: impl Into<EntryRef<'a>>) -> bool {
        self.len + entry.into().encoded_len() <= self.buf.len()
    }

    /// Number of entries appended so far.
    pub fn count(&self) -> u16 {
        self.count
    }

    /// Appends an entry.
    ///
    /// Returns [`LsmError::EntryTooLarge`] if the entry can never fit in an
    /// empty page, [`LsmError::KeyTooLarge`] for keys over the u16 limit.
    /// Callers check [`fits`](Self::fits) first to close full pages.
    pub fn push<'a>(&mut self, entry: impl Into<EntryRef<'a>>) -> Result<()> {
        let entry = entry.into();
        if entry.key.len() > u16::MAX as usize {
            return Err(LsmError::KeyTooLarge(entry.key.len()));
        }
        let encoded = entry.encoded_len();
        if encoded > max_entry_len(self.buf.len()) {
            return Err(LsmError::EntryTooLarge {
                encoded,
                max: max_entry_len(self.buf.len()),
            });
        }
        debug_assert!(self.fits(entry), "caller must close full pages first");
        let (header, body) = self.buf[self.len..self.len + encoded].split_at_mut(ENTRY_HEADER_LEN);
        header[0..2].copy_from_slice(&(entry.key.len() as u16).to_le_bytes());
        header[2..6].copy_from_slice(&(entry.value.len() as u32).to_le_bytes());
        header[6..14].copy_from_slice(&entry.seq.to_le_bytes());
        header[14] = entry.kind.to_byte();
        let (key, value) = body.split_at_mut(entry.key.len());
        key.copy_from_slice(entry.key);
        value.copy_from_slice(entry.value);
        let key_start = self.len + ENTRY_HEADER_LEN;
        self.last_key = key_start..key_start + entry.key.len();
        self.len += encoded;
        self.count += 1;
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

    /// Pads to the page size, stamps count and checksum, and lends the
    /// finished page, leaving the builder empty: the next
    /// [`push`](Self::push) starts a new page over the same buffer.
    pub fn finish(&mut self) -> &[u8] {
        let page = &mut self.buf;
        page[self.len..].fill(0);
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
/// page's bounds. The checksum is not its business (see the module doc).
/// The entry under the cursor is read **borrowed from the page bytes**
/// ([`key`](Self::key), [`entry`](Self::entry)) — no `Bytes` refcount
/// traffic, no copies — and only [`to_entry`](Self::to_entry) /
/// [`next_entry`](Self::next_entry) build an owned [`Entry`], whose key
/// and value are `Bytes` slices of the page buffer.
///
/// Point lookups ([`search`](Self::search)), scans, merges and recovery
/// all read pages through this one type.
pub struct PageCursor {
    page: Bytes,
    /// Offset of the current entry's header.
    off: usize,
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
        let remaining = u16::from_le_bytes([header[0], header[1]]) as usize;
        let mut cursor = Self {
            page,
            ..Self::empty()
        };
        if remaining > 0 {
            cursor.load(PAGE_HEADER_LEN)?;
            cursor.remaining = remaining;
        }
        Ok(cursor)
    }

    /// A cursor over nothing (and holding nothing).
    pub(crate) fn empty() -> Self {
        Self {
            page: Bytes::new(),
            off: 0,
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
            let body = &self.page[self.off + ENTRY_HEADER_LEN..][..self.klen + self.vlen];
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

    /// Finds the newest version of `key` in the page.
    ///
    /// Entries are in internal order (key asc, seq desc), so the scan
    /// compares key slices in place and stops as soon as it passes `key` —
    /// the first match is the newest version, and it is the only entry
    /// ever built into an owned [`Entry`].
    pub fn search(mut self, key: &[u8]) -> Result<Option<Entry>> {
        while let Some(k) = self.key() {
            match k.cmp(key) {
                std::cmp::Ordering::Less => self.advance()?,
                std::cmp::Ordering::Equal => return Ok(self.to_entry()),
                std::cmp::Ordering::Greater => return Ok(None),
            }
        }
        Ok(None)
    }

    #[inline]
    fn key_range(&self) -> Range<usize> {
        let start = self.off + ENTRY_HEADER_LEN;
        start..start + self.klen
    }

    /// Positions the cursor on the entry whose header starts at `off`,
    /// bounds-checking header and body against the page.
    fn load(&mut self, off: usize) -> Result<()> {
        let corrupt =
            |what: &str| LsmError::Corruption(format!("entry at page offset {off} {what}"));
        let Some(header) = self.page.get(off..off + ENTRY_HEADER_LEN) else {
            return Err(corrupt("header truncated"));
        };
        let klen = u16::from_le_bytes(header[0..2].try_into().unwrap()) as usize;
        let vlen = u32::from_le_bytes(header[2..6].try_into().unwrap()) as usize;
        let seq = u64::from_le_bytes(header[6..14].try_into().unwrap());
        let kind = EntryKind::from_byte(header[14]).ok_or_else(|| corrupt("has bad kind byte"))?;
        if off + ENTRY_HEADER_LEN + klen + vlen > self.page.len() {
            return Err(corrupt("body truncated"));
        }
        (self.off, self.klen, self.vlen, self.seq, self.kind) = (off, klen, vlen, seq, kind);
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
    fn fits_respects_page_size() {
        let mut b = PageBuilder::new(64);
        let e = entry("0123456789", "0123456789", 1); // 15 + 20 = 35 bytes
        assert!(b.fits(&e));
        b.push(&e).unwrap();
        assert!(!b.fits(&e), "second copy would exceed 64 bytes");
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut b = PageBuilder::new(64);
        let e = entry("key", &"v".repeat(100), 1);
        assert!(matches!(b.push(&e), Err(LsmError::EntryTooLarge { .. })));
    }

    #[test]
    fn huge_key_rejected() {
        let mut b = PageBuilder::new(1 << 20);
        let e = Entry::put(vec![0u8; 70_000], Vec::new(), 1);
        assert!(matches!(b.push(&e), Err(LsmError::KeyTooLarge(70_000))));
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
        // it bounds-checks every entry header it reaches.
        let good = page_of(&[entry("k", "v", 1)], 64).to_vec();
        // Byte 2 is no kind either: only puts and tombstones exist.
        for kind in [2, 9] {
            let mut bad_kind = good.clone();
            bad_kind[PAGE_HEADER_LEN + 14] = kind; // kind byte of first entry
            let err = PageCursor::new(Bytes::from(bad_kind)).err().unwrap();
            assert!(err.to_string().contains("kind"), "{err}");
        }
        let mut long_body = good.clone();
        long_body[PAGE_HEADER_LEN + 2..PAGE_HEADER_LEN + 6]
            .copy_from_slice(&10_000u32.to_le_bytes());
        let err = PageCursor::new(Bytes::from(long_body)).err().unwrap();
        assert!(err.to_string().contains("truncated"), "{err}");
        // A malformed *later* entry surfaces when the cursor steps onto it.
        let two = page_of(&[entry("a", "1", 1), entry("b", "2", 2)], 64).to_vec();
        let mut second_bad = two.clone();
        second_bad[PAGE_HEADER_LEN + 17 + 14] = 9;
        let mut cursor = PageCursor::new(Bytes::from(second_bad)).unwrap();
        assert_eq!(cursor.key(), Some(b"a".as_slice()));
        assert!(cursor.advance().is_err());
    }

    #[test]
    fn check_rejects_any_flipped_bit() {
        let good = page_of(&[entry("k", "v", 1)], 64).to_vec();
        assert_eq!(check(&good), Ok(()));
        // Every bit of the page, the count's and the checksum's included.
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
            mutation in 0u8..3,
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
            let at = at as usize % page.len();
            match mutation {
                0 => page.truncate(at),
                1 => page[at] ^= 1 << (byte % 8),
                _ => {
                    let count = u16::from_le_bytes([page[0], page[1]]);
                    let inflated = count.saturating_add(1 + at as u16);
                    page[0..2].copy_from_slice(&inflated.to_le_bytes());
                }
            }
            walk(&page, &[byte]);
        }
    }

    #[test]
    fn empty_page_decodes_empty() {
        let cursor = PageCursor::new(page_of(&[], 32)).unwrap();
        assert_eq!(cursor.remaining(), 0);
        assert!(cursor.key().is_none() && cursor.entry().is_none());
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
