//! Key-value entries and their internal ordering.
//!
//! An entry is a key-value pair plus a monotonically increasing sequence
//! number and a kind flag ("there is a flag attached to each entry to
//! indicate if it is a delete", §2). Within the tree, versions of the same
//! key are ordered newest-first: a lookup stops at the first version it
//! finds, and merges keep only the version from the youngest run.

use bytes::Bytes;

/// Whether an entry stores a value or marks a deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// A live key-value pair with the value inline.
    Put,
    /// A tombstone superseding older versions of the key.
    Delete,
}

impl EntryKind {
    /// Single-byte wire encoding.
    pub fn to_byte(self) -> u8 {
        match self {
            Self::Put => 0,
            Self::Delete => 1,
        }
    }

    /// Decodes the wire byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(Self::Put),
            1 => Some(Self::Delete),
            _ => None,
        }
    }
}

/// One versioned key-value entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Application key.
    pub key: Bytes,
    /// Application value (empty for tombstones).
    pub value: Bytes,
    /// Global sequence number; larger = newer.
    pub seq: u64,
    /// Put or tombstone.
    pub kind: EntryKind,
}

impl Entry {
    /// Creates a live entry.
    pub fn put(key: impl Into<Bytes>, value: impl Into<Bytes>, seq: u64) -> Self {
        Self {
            key: key.into(),
            value: value.into(),
            seq,
            kind: EntryKind::Put,
        }
    }

    /// Creates a tombstone.
    pub fn tombstone(key: impl Into<Bytes>, seq: u64) -> Self {
        Self {
            key: key.into(),
            value: Bytes::new(),
            seq,
            kind: EntryKind::Delete,
        }
    }

    /// True for tombstones.
    pub fn is_tombstone(&self) -> bool {
        self.kind == EntryKind::Delete
    }

    /// Logical size: the fixed [`ENTRY_HEADER_LEN`] plus key and value
    /// bytes. Every capacity count charges this, not the smaller varint
    /// encoding a page gives the entry (see [`page`](crate::page)).
    pub fn encoded_len(&self) -> usize {
        ENTRY_HEADER_LEN + self.key.len() + self.value.len()
    }

    /// Internal ordering: key ascending, then sequence number *descending*,
    /// so the newest version of a key sorts first among its duplicates.
    pub fn internal_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// What a point lookup finds: the newest version of the key it probed —
/// its value, sequence number and kind. The key is the probe's, so a
/// lookup copies none (a page stores keys split around a shared prefix;
/// see [`page`](crate::page)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// Application value (empty for tombstones).
    pub value: Bytes,
    /// Global sequence number; larger = newer.
    pub seq: u64,
    /// Put or tombstone.
    pub kind: EntryKind,
}

impl Hit {
    /// True for tombstones.
    pub fn is_tombstone(&self) -> bool {
        self.kind == EntryKind::Delete
    }
}

/// One entry borrowed from where it lives — a page's bytes, a memtable's
/// arena. The merge kernel compares and filters these in place; an owned
/// [`Entry`] is only built for what leaves the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef<'a> {
    /// Application key.
    pub key: &'a [u8],
    /// Application value (empty for tombstones).
    pub value: &'a [u8],
    /// Global sequence number; larger = newer.
    pub seq: u64,
    /// Put or tombstone.
    pub kind: EntryKind,
}

impl EntryRef<'_> {
    /// True for tombstones.
    pub fn is_tombstone(&self) -> bool {
        self.kind == EntryKind::Delete
    }

    /// Logical size: the fixed [`ENTRY_HEADER_LEN`] plus key and value
    /// bytes. Every capacity count charges this, not the smaller varint
    /// encoding a page gives the entry (see [`page`](crate::page)).
    pub fn encoded_len(&self) -> usize {
        ENTRY_HEADER_LEN + self.key.len() + self.value.len()
    }
}

impl<'a> From<&'a Entry> for EntryRef<'a> {
    fn from(entry: &'a Entry) -> Self {
        Self {
            key: &entry.key,
            value: &entry.value,
            seq: entry.seq,
            kind: entry.kind,
        }
    }
}

/// An entry that is read where it lies and can be handed out owned — what
/// the merge kernel shows its consumers and [`RunBuilder`](crate::run::RunBuilder)
/// consumes: every entry is copied from the borrowed view into the output
/// page, and only the one key per page that outlives the page (its fence)
/// is taken from the owned form.
pub trait EntryView {
    /// The entry, borrowed in place.
    fn entry(&self) -> EntryRef<'_>;

    /// The entry, owned without copying it: references on the buffers it
    /// lies in (for a memtable entry, the arena chunks its key and value
    /// lie in; for an entry on a page, the whole page — each stays alive as
    /// long as the key or value does).
    fn to_entry(&self) -> Entry;
}

impl EntryView for Entry {
    fn entry(&self) -> EntryRef<'_> {
        self.into()
    }

    fn to_entry(&self) -> Entry {
        self.clone()
    }
}

/// Bytes of an entry's logical header: key length (u16), value length
/// (u32), sequence (u64), kind (u8). The WAL record body carries it as is;
/// a page encodes it in 3 to 18 bytes of varints (see
/// [`page`](crate::page)), and capacity counts charge these 15.
pub const ENTRY_HEADER_LEN: usize = 2 + 4 + 8 + 1;

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn kind_roundtrip() {
        for k in [EntryKind::Put, EntryKind::Delete] {
            assert_eq!(EntryKind::from_byte(k.to_byte()), Some(k));
        }
        assert_eq!(EntryKind::from_byte(2), None);
        assert_eq!(EntryKind::from_byte(7), None);
    }

    #[test]
    fn constructors() {
        let e = Entry::put(&b"k"[..], &b"v"[..], 5);
        assert!(!e.is_tombstone());
        assert_eq!(e.seq, 5);
        let t = Entry::tombstone(&b"k"[..], 6);
        assert!(t.is_tombstone());
        assert!(t.value.is_empty());
    }

    #[test]
    fn encoded_len_counts_header() {
        let e = Entry::put(&b"ab"[..], &b"cde"[..], 0);
        assert_eq!(e.encoded_len(), ENTRY_HEADER_LEN + 5);
    }

    #[test]
    fn internal_cmp_orders_key_then_newest_first() {
        let a1 = Entry::put(&b"a"[..], &b"1"[..], 1);
        let a2 = Entry::put(&b"a"[..], &b"2"[..], 2);
        let b1 = Entry::put(&b"b"[..], &b"1"[..], 1);
        assert_eq!(a2.internal_cmp(&a1), Ordering::Less, "newer version first");
        assert_eq!(a1.internal_cmp(&b1), Ordering::Less);
        assert_eq!(b1.internal_cmp(&a2), Ordering::Greater);
        assert_eq!(a1.internal_cmp(&a1.clone()), Ordering::Equal);
    }
}
