//! The in-memory buffer (Level 0 of the paper's Figure 2).
//!
//! Updates go to the buffer without touching secondary storage; an update to
//! a key already buffered replaces it **in place** so "only the latest one
//! survives" (§2). When the buffer reaches its byte capacity
//! `M_buffer = P·B·E`, the engine sort-merges it into Level 1.
//!
//! The buffer is a concurrent skiplist laid out in an arena
//! ([`crate::skiplist`]): writers are serialized by the engine's shard lock
//! anyway, but point reads and scans traverse it **lock-free** — a `get`
//! against the active buffer never waits behind a writer. It is already sorted, so nothing copies it
//! out: a scan and the flush's merge each walk it in place through a
//! [`MemtableCursor`], and what they hand on owned shares the arena.
//!
//! An insert copies the entry into the arena, so the caller's buffers are
//! freed at once; the buffer's heap is its chunks, freed whole when it
//! drops after its flush.

use crate::entry::{Entry, EntryRef, EntryView, ENTRY_HEADER_LEN};
use crate::skiplist::{Cursor, SkipList};
use bytes::Bytes;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// Sorted in-memory buffer of the newest updates.
#[derive(Debug, Default)]
pub struct Memtable {
    list: SkipList,
    /// Encoded bytes of the live entries: what counts against `M_buffer`.
    bytes: AtomicUsize,
}

impl Memtable {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces an entry, returning the buffer's new byte size.
    /// Takes `&self`: concurrent readers stay lock-free while the engine's
    /// shard lock serializes writers.
    pub fn insert(&self, entry: Entry) -> usize {
        let add = entry.encoded_len();
        if let Some(old_value_len) = self.list.insert((&entry).into()) {
            // Replaced in place (§2): swap the old footprint for the new.
            let old_footprint = ENTRY_HEADER_LEN + entry.key.len() + old_value_len;
            let before = self.bytes.fetch_add(add, Relaxed);
            self.bytes.fetch_sub(old_footprint, Relaxed);
            before + add - old_footprint
        } else {
            self.bytes.fetch_add(add, Relaxed) + add
        }
    }

    /// Looks a key up without locking. `Some(entry)` may be a tombstone —
    /// the caller decides what a delete means at its layer. Key and value
    /// share the buffer's arena: no copy, no allocation.
    pub fn get(&self, key: &[u8]) -> Option<Entry> {
        self.list.get(key)
    }

    /// Number of distinct buffered keys.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Encoded footprint in bytes of the live entries (what counts against
    /// `M_buffer`, and what rotation is triggered by). Values displaced by
    /// in-place replacement are not in it, though the arena keeps them
    /// until the buffer drops.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Relaxed)
    }

    /// Opens a cursor on the first entry with key `>= lo` (the smallest
    /// key without `lo`), ending before `hi` — which the cursor keeps, so
    /// it comes owned (a scan shares its own copy of the bound). The
    /// cursor shares ownership of the buffer, so it stays valid through a
    /// rotation and a flush.
    pub fn cursor(self: &Arc<Self>, lo: Option<&[u8]>, hi: Option<Bytes>) -> MemtableCursor {
        // SAFETY: `list` is a field of the memtable the cursor's `Arc`
        // keeps alive, and no method replaces it.
        MemtableCursor(unsafe { Cursor::new(Arc::clone(self), &self.list, lo, hi) })
    }
}

/// A cursor positioned on one entry of a memtable, walking it in key order
/// without copying it out — what a scan and the flush's merge read the
/// buffer through.
///
/// On a buffer that is still taking writes, the entry under the cursor is
/// the version it held when the cursor stepped onto it — key, sequence
/// number and value always belong together — and keys inserted ahead of
/// the cursor are seen, keys inserted behind it are not.
pub struct MemtableCursor(Cursor<Arc<Memtable>>);

impl MemtableCursor {
    /// Entries in the whole buffer: an upper bound on what is left.
    pub(crate) fn len_hint(&self) -> usize {
        self.0.owner().len()
    }

    /// Key and sequence number of the current entry; `None` once exhausted.
    #[inline]
    pub fn head(&self) -> Option<(&[u8], u64)> {
        self.0.get().map(|entry| (entry.key, entry.seq))
    }

    /// Steps to the next entry.
    pub fn advance(&mut self) {
        self.0.advance();
    }

    /// Exhausts the cursor.
    pub(crate) fn close(&mut self) {
        self.0.close();
    }
}

/// A cursor is viewed at its current entry.
///
/// # Panics
/// When the cursor is exhausted.
impl EntryView for MemtableCursor {
    #[inline]
    fn entry(&self) -> EntryRef<'_> {
        self.0.get().expect("cursor is not exhausted")
    }

    fn to_entry(&self) -> Entry {
        self.0.to_entry().expect("cursor is not exhausted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(m: &Memtable, k: &str, v: &str, seq: u64) {
        m.insert(Entry::put(
            k.as_bytes().to_vec(),
            v.as_bytes().to_vec(),
            seq,
        ));
    }

    #[test]
    fn insert_and_get() {
        let m = Memtable::new();
        put(&m, "a", "1", 1);
        assert_eq!(m.get(b"a").unwrap().value.as_ref(), b"1");
        assert!(m.get(b"b").is_none());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn replacement_keeps_latest_only() {
        let m = Memtable::new();
        put(&m, "k", "old", 1);
        put(&m, "k", "new", 2);
        assert_eq!(m.len(), 1, "in-place replacement (§2)");
        let e = m.get(b"k").unwrap();
        assert_eq!(e.value.as_ref(), b"new");
        assert_eq!(e.seq, 2);
    }

    #[test]
    fn tombstone_is_visible() {
        let m = Memtable::new();
        put(&m, "k", "v", 1);
        m.insert(Entry::tombstone(b"k".to_vec(), 2));
        let e = m.get(b"k").unwrap();
        assert!(e.is_tombstone());
    }

    #[test]
    fn bytes_accounting_tracks_replacements() {
        let m = Memtable::new();
        put(&m, "key", "12345", 1);
        let after_first = m.bytes();
        assert_eq!(after_first, ENTRY_HEADER_LEN + 3 + 5);
        put(&m, "key", "1", 2); // value shrinks by 4
        assert_eq!(m.bytes(), after_first - 4);
        put(&m, "key", "123456789", 3); // value grows
        assert_eq!(m.bytes(), ENTRY_HEADER_LEN + 3 + 9);
    }

    /// Every entry from the cursor's position on, owned.
    fn drain(mut cursor: MemtableCursor) -> Vec<Entry> {
        let mut entries = Vec::new();
        while cursor.head().is_some() {
            entries.push(cursor.to_entry());
            cursor.advance();
        }
        entries
    }

    fn keys(entries: &[Entry]) -> Vec<&[u8]> {
        entries.iter().map(|e| e.key.as_ref()).collect()
    }

    #[test]
    fn cursor_walks_in_key_order_and_outlives_its_handle() {
        let m = Arc::new(Memtable::new());
        put(&m, "c", "3", 3);
        put(&m, "a", "1", 1);
        put(&m, "b", "2", 2);
        let cursor = m.cursor(None, None);
        assert_eq!(cursor.head(), Some((b"a".as_ref(), 1)));
        assert_eq!(cursor.entry().value, b"1");
        drop(m); // the cursor owns its share of the buffer
        let walked = drain(cursor);
        assert_eq!(keys(&walked), vec![b"a".as_ref(), b"b", b"c"]);
        assert_eq!(walked[2], Entry::put(&b"c"[..], &b"3"[..], 3));
    }

    #[test]
    fn range_bounds() {
        let m = Arc::new(Memtable::new());
        for k in ["a", "b", "c", "d"] {
            put(&m, k, "v", 1);
        }
        let r = drain(m.cursor(Some(b"b"), Some(Bytes::from_static(b"d"))));
        assert_eq!(keys(&r), vec![b"b".as_ref(), b"c"]);
        assert_eq!(drain(m.cursor(Some(b"c"), None)).len(), 2);
        assert_eq!(
            drain(m.cursor(None, Some(Bytes::from_static(b"c")))).len(),
            2
        );
        assert!(drain(m.cursor(Some(b"x"), None)).is_empty());
        assert!(drain(m.cursor(Some(b"b"), Some(Bytes::from_static(b"b")))).is_empty());
    }

    /// A value replaced in place while a cursor sits on its key must not
    /// tear the entry: sequence number and value come from the one value
    /// pointer the cursor loaded when it stepped there, whatever a writer
    /// does between `head()` and `entry()`.
    #[test]
    fn cursor_never_tears_an_entry_a_writer_is_replacing() {
        const KEYS: u64 = 64;
        fn key(i: u64) -> Vec<u8> {
            format!("key{i:03}").into_bytes()
        }
        /// Every version of a key carries its own sequence number as value.
        fn version(i: u64, seq: u64) -> Entry {
            Entry::put(key(i), seq.to_string().into_bytes(), seq)
        }
        let untorn = |cursor: &MemtableCursor, i: u64, seq: u64| {
            let entry = cursor.entry();
            assert_eq!((entry.key, entry.seq), (key(i).as_slice(), seq));
            assert_eq!(entry.value, seq.to_string().as_bytes(), "torn entry");
            assert_eq!(cursor.to_entry(), version(i, seq));
        };
        let m = Arc::new(Memtable::new());
        for i in 0..KEYS {
            m.insert(version(i, i));
        }

        // The interleaving itself, forced: the key under the cursor and the
        // one ahead of it are replaced after `head()` was read.
        let mut cursor = m.cursor(None, None);
        for i in 0..KEYS {
            // Key `i` was replaced while the cursor sat on key `i - 1`.
            let seq = if i == 0 { 0 } else { KEYS + i };
            assert_eq!(cursor.head(), Some((key(i).as_slice(), seq)));
            m.insert(version(i, 2 * KEYS + i));
            m.insert(version((i + 1) % KEYS, KEYS + (i + 1) % KEYS));
            untorn(&cursor, i, seq); // what the cursor stepped onto, whole
            assert_eq!(m.get(&key(i)).unwrap().seq, 2 * KEYS + i);
            cursor.advance();
        }
        assert!(cursor.head().is_none());

        // And against a real writer thread (CI's `tsan` job runs this).
        let writer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                for round in 3..40 {
                    for i in 0..KEYS {
                        m.insert(version(i, round * KEYS + i));
                    }
                }
            })
        };
        while !writer.is_finished() {
            let mut cursor = m.cursor(None, None);
            for i in 0..KEYS {
                let (_, seq) = cursor.head().expect("keys are never removed");
                std::thread::yield_now();
                untorn(&cursor, i, seq);
                cursor.advance();
            }
            assert!(cursor.head().is_none());
        }
        writer.join().unwrap();
    }

    /// A key or a value too large for an arena chunk gets a chunk of its
    /// own — pages, and so entries, can exceed one — and the chunk being
    /// filled carries on around it.
    #[test]
    fn an_entry_larger_than_a_chunk_round_trips() {
        let big_key = vec![b'k'; 70 << 10];
        let big_value: Vec<u8> = (0..200u32 << 10).map(|i| i as u8).collect();
        let m = Arc::new(Memtable::new());
        put(&m, "a", "1", 1);
        m.insert(Entry::put(big_key.clone(), &b"2"[..], 2));
        put(&m, "l", "3", 3);
        m.insert(Entry::put(&b"m"[..], big_value.clone(), 4));
        put(&m, "z", "5", 5);
        let want = [
            Entry::put(&b"a"[..], &b"1"[..], 1),
            Entry::put(big_key.clone(), &b"2"[..], 2),
            Entry::put(&b"l"[..], &b"3"[..], 3),
            Entry::put(&b"m"[..], big_value.clone(), 4),
            Entry::put(&b"z"[..], &b"5"[..], 5),
        ];
        for entry in &want {
            assert_eq!(m.get(&entry.key).as_ref(), Some(entry));
        }
        assert_eq!(drain(m.cursor(None, None)), want);
        assert_eq!(
            m.bytes(),
            want.iter().map(Entry::encoded_len).sum::<usize>()
        );
        // Handed out in place, not copied: two lookups share one value.
        let (one, two) = (m.get(b"m").unwrap(), m.get(b"m").unwrap());
        assert_eq!(one.value.as_ptr(), two.value.as_ptr());
        // A large value replaced by a small one and back.
        put(&m, "m", "small", 6);
        assert_eq!(m.get(b"m").unwrap().value.as_ref(), b"small");
        m.insert(Entry::put(&b"m"[..], big_value.clone(), 7));
        drop(m); // what was handed out outlives the buffer
        assert_eq!(one.value, big_value);
    }

    #[test]
    fn concurrent_lock_free_reads_see_writes() {
        let m = Arc::new(Memtable::new());
        let writer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                for i in 0..2000u64 {
                    m.insert(Entry::put(
                        format!("key{:05}", i % 500).into_bytes(),
                        format!("v{i}").into_bytes(),
                        i + 1,
                    ));
                }
            })
        };
        let mut last_len = 0;
        while last_len < 500 {
            last_len = m.len();
            for i in (0..500).step_by(13) {
                if let Some(e) = m.get(format!("key{i:05}").as_bytes()) {
                    assert!(e.seq >= 1);
                }
            }
        }
        writer.join().unwrap();
        assert_eq!(m.len(), 500);
        assert_eq!(drain(m.cursor(None, None)).len(), 500);
    }
}
