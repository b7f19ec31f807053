//! The memtable's concurrent skiplist, laid out in an arena it owns.
//!
//! The engine's write path is already serialized (every `put` holds the
//! shard's write lock while it appends to the WAL and buffer), so this
//! list optimizes for the other side: **readers never take a lock**.
//! Point lookups and the [`Cursor`]s scans and flushes walk the buffer
//! with all traverse the towers with `Acquire` loads while a writer may be
//! splicing nodes in.
//!
//! **Memory.** Every entry lives in fixed-size chunks ([`CHUNK_BYTES`])
//! the list allocates by bumping an offset, as two records:
//!
//! - a **node**: one atomic pointer to the entry's current value record,
//!   the key's length, the tower's height, a tower of exactly `height`
//!   atomic next pointers, and the key bytes;
//! - a **value record**: sequence number, kind, length and value bytes.
//!
//! A record larger than a chunk gets a chunk of its own. Each record notes
//! its offset in its chunk, and a chunk's first word is the address of the
//! `Arc` that owns it, so [`SkipList::get`] and [`Cursor::to_entry`] hand
//! out `Bytes` that share the chunk — a reference count, no copy. Nothing
//! is freed entry by entry: the chunks go when the list and the last
//! `Bytes` over them do.
//!
//! The usual skiplist hazards are sidestepped structurally rather than
//! with epochs or hazard pointers:
//!
//! - **Nodes are never unlinked.** The memtable only ever inserts or
//!   replaces; deletes are tombstone values. Every published node stays
//!   reachable until the whole list drops.
//! - **Arena bytes are written once.** An in-place update (§2: "only the
//!   latest one survives") writes a new value record and publishes it with
//!   one `Release` swap of the node's value pointer. The displaced record
//!   stays where it is until the chunks go, so a reader that loaded the old
//!   pointer keeps reading it. Callers hold the memtable via `Arc`, so the
//!   list cannot drop under a reader.
//! - **Writers serialize on an internal mutex**, which also guards the
//!   arena's bump offset and the deterministic tower-height RNG.
//!
//! Tower heights come from a fixed-seed xorshift so that rebuilding the
//! same op trace rebuilds the same structure — nothing in the engine
//! depends on that, but it keeps replays reproducible when debugging.

use crate::entry::{Entry, EntryKind, EntryRef};
use bytes::Bytes;
use std::cell::UnsafeCell;
use std::cmp::Ordering;
use std::fmt;
use std::marker::PhantomData;
use std::mem::{size_of, ManuallyDrop, MaybeUninit};
use std::ptr;
use std::sync::atomic::{
    AtomicPtr, AtomicUsize,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::{Arc, Mutex};

/// Tallest tower. With p = 1/8 this is comfortable for the millions of
/// entries a large write buffer can hold.
const MAX_HEIGHT: usize = 8;

/// Bytes per arena chunk: an offset into one fits a `u16`.
const CHUNK_BYTES: usize = 64 << 10;
const _: () = assert!(CHUNK_BYTES <= 1 << 16);

/// A chunk's first word: the address of the `Arc` that owns the chunk.
const CHUNK_HEADER: usize = size_of::<*const Chunk>();

/// Records start 8-byte aligned, for the atomics and sequence numbers in
/// them.
const ALIGN: usize = 8;

/// A block of arena memory, 8-byte aligned, written through its cells.
struct Chunk(Box<[UnsafeCell<MaybeUninit<u64>>]>);

// SAFETY: only the list's writer writes a chunk (under the list's mutex),
// and only bytes it has not published yet. Readers reach bytes through a
// pointer the writer stored with `Release` after writing them, and nobody
// writes them again: across threads a chunk is shared immutable bytes.
unsafe impl Sync for Chunk {}

impl Chunk {
    /// A chunk of at least `bytes` bytes whose first word points at itself.
    fn new(bytes: usize) -> Arc<Self> {
        let words = bytes.div_ceil(size_of::<u64>());
        let cells = (0..words).map(|_| UnsafeCell::new(MaybeUninit::uninit()));
        let raw = Arc::into_raw(Arc::new(Self(cells.collect())));
        // SAFETY: `raw` comes from `Arc::into_raw` just above and turns back
        // into the one `Arc` it was; the first word is inside the chunk
        // (`bytes` is at least `CHUNK_HEADER`), aligned, and not yet read.
        unsafe {
            (*raw).base().cast::<*const Chunk>().write(raw);
            Arc::from_raw(raw)
        }
    }

    /// The chunk's first byte, writable through the cells.
    fn base(&self) -> *mut u8 {
        UnsafeCell::raw_get(self.0.as_ptr()).cast()
    }
}

/// A view of `bytes`, which lie in the same chunk as the record at
/// `record`, `offset` bytes into that chunk: a share of the chunk, not a
/// copy.
fn share(record: *const u8, offset: u16, bytes: &[u8]) -> Bytes {
    if bytes.is_empty() {
        return Bytes::new();
    }
    // SAFETY: the record's chunk is alive (the list holds every chunk it
    // allocated, and the caller holds the list), and its first word is the
    // pointer `Arc::into_raw` gave for it. Rebuilt without being dropped,
    // that `Arc` is only cloned. `bytes` lies in the chunk and is never
    // written again, so the clone keeps it readable as long as the view.
    unsafe {
        let chunk = record.sub(offset.into()).cast::<*const Chunk>().read();
        let chunk = ManuallyDrop::new(Arc::from_raw(chunk));
        Bytes::from_owner_raw(Arc::clone(&chunk), bytes.as_ptr(), bytes.len())
    }
}

/// A node's fixed part. Its tower (`height` next pointers) and then the key
/// bytes follow it in the arena.
#[repr(C)]
struct Node {
    /// The entry's current value record; swapped on in-place replacement.
    value: AtomicPtr<Value>,
    key_len: u32,
    /// Offset of the node from the start of its chunk.
    chunk_offset: u16,
    height: u8,
}

/// A value record's fixed part. The value bytes follow it in the arena.
#[repr(C)]
struct Value {
    seq: u64,
    len: u32,
    /// Offset of the record from the start of its chunk.
    chunk_offset: u16,
    kind: EntryKind,
}

/// A node of a list alive for `'a`, fully written: only ever built from a
/// pointer the list published.
#[derive(Clone, Copy)]
struct NodeRef<'a> {
    ptr: *const Node,
    list: PhantomData<&'a SkipList>,
}

impl<'a> NodeRef<'a> {
    fn new(ptr: *const Node) -> Self {
        Self {
            ptr,
            list: PhantomData,
        }
    }

    /// The node a tower slot points at; `None` past the last.
    #[inline]
    fn follow(slot: &'a AtomicPtr<Node>) -> Option<Self> {
        // Acquire pairs with the Release splice, so a node seen here has
        // its fields, tower and key written.
        let ptr = slot.load(Acquire);
        (!ptr.is_null()).then(|| Self::new(ptr))
    }

    #[inline]
    fn fields(self) -> &'a Node {
        // SAFETY: `ptr` is a written node of a list alive for `'a` (the
        // type's invariant), and the list frees no node before it drops.
        unsafe { &*self.ptr }
    }

    /// Successors, one per level the node reaches.
    #[inline]
    fn tower(self) -> &'a [AtomicPtr<Node>] {
        let height = self.fields().height.into();
        // SAFETY: as in `fields`; `height` written slots follow the fields
        // inside the record the arena sized for them.
        unsafe { std::slice::from_raw_parts(self.ptr.add(1).cast(), height) }
    }

    #[inline]
    fn key(self) -> &'a [u8] {
        let fields = self.fields();
        // SAFETY: as in `tower`; `key_len` bytes follow the tower, written
        // before the node was published and never again.
        unsafe {
            let tower = self.ptr.add(1).cast::<AtomicPtr<Node>>();
            let key = tower.add(fields.height.into()).cast();
            std::slice::from_raw_parts(key, fields.key_len as usize)
        }
    }

    /// The value record the node holds now.
    #[inline]
    fn value(self) -> ValueRef<'a> {
        // Acquire pairs with the Release that published the record.
        ValueRef::new(self.fields().value.load(Acquire))
    }
}

/// A written value record of a list alive for `'a`.
#[derive(Clone, Copy)]
struct ValueRef<'a> {
    ptr: *const Value,
    list: PhantomData<&'a SkipList>,
}

impl<'a> ValueRef<'a> {
    fn new(ptr: *const Value) -> Self {
        Self {
            ptr,
            list: PhantomData,
        }
    }

    #[inline]
    fn fields(self) -> &'a Value {
        // SAFETY: `ptr` is a written value record of a list alive for `'a`
        // (the type's invariant); the arena frees no record before it drops.
        unsafe { &*self.ptr }
    }

    #[inline]
    fn bytes(self) -> &'a [u8] {
        let len = self.fields().len as usize;
        // SAFETY: as in `fields`; `len` bytes follow them, written before
        // the record was published and never again.
        unsafe { std::slice::from_raw_parts(self.ptr.add(1).cast(), len) }
    }
}

/// The entry `node` holds with `value`, borrowed where it lies.
#[inline]
fn entry_ref<'a>(node: NodeRef<'a>, value: ValueRef<'a>) -> EntryRef<'a> {
    let fields = value.fields();
    EntryRef {
        key: node.key(),
        value: value.bytes(),
        seq: fields.seq,
        kind: fields.kind,
    }
}

/// The same entry owned: key and value share their chunks.
fn to_entry(node: NodeRef<'_>, value: ValueRef<'_>) -> Entry {
    let fields = value.fields();
    Entry {
        key: share(node.ptr.cast(), node.fields().chunk_offset, node.key()),
        value: share(value.ptr.cast(), fields.chunk_offset, value.bytes()),
        seq: fields.seq,
        kind: fields.kind,
    }
}

/// The writer's side of the arena.
struct Arena {
    /// Every chunk allocated, the one being filled last: holding them is
    /// what keeps every record readable.
    chunks: Vec<Arc<Chunk>>,
    /// Offset of the first free byte in the last chunk; a full chunk's
    /// worth before there is one.
    used: usize,
}

impl Arena {
    /// `size` unused bytes, 8-byte aligned, and their offset in their
    /// chunk. A record too large for a chunk gets one of its own, and the
    /// chunk being filled stays the one being filled.
    fn alloc(&mut self, size: usize) -> (*mut u8, u16) {
        let size = size.next_multiple_of(ALIGN);
        if CHUNK_HEADER + size > CHUNK_BYTES {
            let chunk = Chunk::new(CHUNK_HEADER + size);
            let record = chunk.base().wrapping_add(CHUNK_HEADER);
            let filling = self.chunks.len().saturating_sub(1);
            self.chunks.insert(filling, chunk);
            return (record, CHUNK_HEADER as u16);
        }
        if self.used + size > CHUNK_BYTES {
            self.chunks.push(Chunk::new(CHUNK_BYTES));
            self.used = CHUNK_HEADER;
        }
        let offset = self.used;
        self.used += size;
        let chunk = self.chunks.last().expect("a chunk is being filled");
        (chunk.base().wrapping_add(offset), offset as u16)
    }

    /// Writes a value record for `entry`.
    fn value(&mut self, entry: EntryRef<'_>) -> *mut Value {
        let len = u32::try_from(entry.value.len()).expect("a value under 4 GiB");
        let (record, chunk_offset) = self.alloc(size_of::<Value>() + entry.value.len());
        let value = record.cast::<Value>();
        // SAFETY: `alloc` handed out this many unused, aligned bytes of a
        // chunk the arena holds; no reader sees them before a `Release`
        // store publishes `value`.
        unsafe {
            value.write(Value {
                seq: entry.seq,
                len,
                chunk_offset,
                kind: entry.kind,
            });
            ptr::copy_nonoverlapping(entry.value.as_ptr(), value.add(1).cast(), entry.value.len());
        }
        value
    }

    /// Writes a node for `key` holding `value`, with a tower of one slot
    /// per successor in `succs`.
    fn node(&mut self, key: &[u8], value: *mut Value, succs: &[*mut Node]) -> *mut Node {
        let key_len = u32::try_from(key.len()).expect("a key under 4 GiB");
        let tower = size_of::<AtomicPtr<Node>>() * succs.len();
        let (record, chunk_offset) = self.alloc(size_of::<Node>() + tower + key.len());
        let node = record.cast::<Node>();
        // SAFETY: as in `value`: unused bytes of a held chunk, sized for the
        // fields, the tower and the key, published only afterwards.
        unsafe {
            node.write(Node {
                value: AtomicPtr::new(value),
                key_len,
                chunk_offset,
                height: succs.len() as u8,
            });
            let slots = node.add(1).cast::<AtomicPtr<Node>>();
            for (lvl, &succ) in succs.iter().enumerate() {
                slots.add(lvl).write(AtomicPtr::new(succ));
            }
            ptr::copy_nonoverlapping(key.as_ptr(), slots.add(succs.len()).cast(), key.len());
        }
        node
    }
}

struct Writer {
    /// xorshift64 state for tower heights; fixed seed, deterministic.
    rng: u64,
    arena: Arena,
}

impl Writer {
    /// A deterministic geometric tower height, p = 1/8. A tower averages
    /// 8/7 slots against 4/3 at the usual 1/4, for some 30 % more key
    /// comparisons per search: with 16-byte keys and 112-byte values that
    /// keeps a full buffer's arena within a fifth of its encoded bytes.
    fn height(&mut self) -> usize {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        ((self.rng.trailing_zeros() / 3) as usize + 1).min(MAX_HEIGHT)
    }
}

/// Concurrent sorted map of entries: lock-free reads, mutex-serialized
/// writes.
pub(crate) struct SkipList {
    /// The head sentinel's tower: the first node of every level.
    head: [AtomicPtr<Node>; MAX_HEIGHT],
    writer: Mutex<Writer>,
    len: AtomicUsize,
}

impl Default for SkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SkipList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipList")
            .field("len", &self.len())
            .finish()
    }
}

impl SkipList {
    pub fn new() -> Self {
        Self {
            head: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            writer: Mutex::new(Writer {
                rng: 0x9E37_79B9_7F4A_7C15,
                arena: Arena {
                    chunks: Vec::new(),
                    used: CHUNK_BYTES,
                },
            }),
            len: AtomicUsize::new(0),
        }
    }

    pub fn len(&self) -> usize {
        self.len.load(Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies `entry` into the arena: a new node, or — when the key is
    /// already present — a new value record replacing the node's in place.
    /// Returns the length of the **displaced** value if there was one.
    pub fn insert(&self, entry: EntryRef<'_>) -> Option<usize> {
        let mut writer = self.writer.lock().expect("no writer panics mid-insert");
        let mut preds: [&[AtomicPtr<Node>]; MAX_HEIGHT] = [&self.head; MAX_HEIGHT];
        let mut tower: &[AtomicPtr<Node>] = &self.head;
        for lvl in (0..MAX_HEIGHT).rev() {
            while let Some(next) = NodeRef::follow(&tower[lvl]) {
                match next.key().cmp(entry.key) {
                    Ordering::Less => tower = next.tower(),
                    Ordering::Equal => {
                        // In-place replacement: publish the new record; the
                        // displaced one stays readable in the arena.
                        let fresh = writer.arena.value(entry);
                        let old = next.fields().value.swap(fresh, Release);
                        return Some(ValueRef::new(old).fields().len as usize);
                    }
                    Ordering::Greater => break,
                }
            }
            preds[lvl] = tower;
        }

        let height = writer.height();
        let mut succs = [ptr::null_mut(); MAX_HEIGHT];
        for (lvl, succ) in succs.iter_mut().enumerate().take(height) {
            // Relaxed: the mutex orders this writer after whoever stored it.
            *succ = preds[lvl][lvl].load(Relaxed);
        }
        let value = writer.arena.value(entry);
        let node = writer.arena.node(entry.key, value, &succs[..height]);
        for (lvl, pred) in preds.iter().enumerate().take(height) {
            // Release publishes the node's fields, tower, key and value.
            pred[lvl].store(node, Release);
        }
        self.len.fetch_add(1, Relaxed);
        None
    }

    /// Lock-free point lookup; key and value share the arena's chunks.
    pub fn get(&self, key: &[u8]) -> Option<Entry> {
        let next = NodeRef::follow(&self.predecessor(Some(key))[0])?;
        (next.key() == key).then(|| to_entry(next, next.value()))
    }

    /// The tower of the last node with a key `< lo` (the head's when there
    /// is none, or without `lo`).
    fn predecessor(&self, lo: Option<&[u8]>) -> &[AtomicPtr<Node>] {
        let mut tower: &[AtomicPtr<Node>] = &self.head;
        if let Some(lo) = lo {
            for lvl in (0..MAX_HEIGHT).rev() {
                while let Some(next) = NodeRef::follow(&tower[lvl]) {
                    if next.key() >= lo {
                        break;
                    }
                    tower = next.tower();
                }
            }
        }
        tower
    }

    /// A cursor borrowing the list, on the first key `>= lo` (the front
    /// without `lo`) and ending before `hi`.
    #[cfg(test)]
    fn cursor(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Cursor<&Self> {
        // SAFETY: the owner is a borrow of this very list.
        unsafe { Cursor::new(self, self, lo, hi.map(Bytes::copy_from_slice)) }
    }
}

/// A lock-free in-order walk of a list's level 0, positioned on one entry
/// at a time, that owns whatever keeps the list alive (`O`: a borrow of
/// it, or an `Arc` of the structure it is a field of) — so it can outlive
/// the scope it was opened in, be stored in a merge's source set, and move
/// to a merge worker.
///
/// The value under the cursor is the record its node held when the cursor
/// stepped onto it: a writer replacing the value in place meanwhile does
/// not change what the cursor shows (the displaced record stays in the
/// arena). Nodes spliced in behind the cursor are not observed; ones
/// spliced in ahead of it are.
pub(crate) struct Cursor<O> {
    owner: O,
    /// The node under the cursor and the value record it held when the
    /// cursor stepped onto it; `None` once exhausted.
    at: Option<(*const Node, *const Value)>,
    /// Exclusive upper bound: the cursor is exhausted from the first key
    /// `>= hi` on.
    hi: Option<Bytes>,
}

// SAFETY: the pointers lead into chunks of the list `owner` keeps alive,
// where the cursor only reads atomics and bytes nobody writes again; the
// owner moves with the cursor.
unsafe impl<O: Send> Send for Cursor<O> {}

impl<O> Cursor<O> {
    /// A cursor over `list` on the first key `>= lo` (the front without
    /// `lo`), ending before `hi`.
    ///
    /// # Safety
    /// `owner` must keep `list` alive — neither dropped nor replaced — for
    /// as long as it exists itself.
    pub(crate) unsafe fn new(
        owner: O,
        list: &SkipList,
        lo: Option<&[u8]>,
        hi: Option<Bytes>,
    ) -> Self {
        let mut cursor = Self {
            owner,
            at: None,
            hi,
        };
        cursor.at = cursor.onto(NodeRef::follow(&list.predecessor(lo)[0]));
        cursor
    }

    /// What keeps the list alive.
    pub(crate) fn owner(&self) -> &O {
        &self.owner
    }

    /// Where the cursor stands on `next`: nowhere at or past `hi`;
    /// otherwise on the node and the value record it holds now, loaded
    /// once, so key, value and sequence number come from one version of
    /// the entry.
    fn onto(&self, next: Option<NodeRef<'_>>) -> Option<(*const Node, *const Value)> {
        let next = next?;
        if self.hi.as_deref().is_some_and(|hi| next.key() >= hi) {
            return None;
        }
        Some((next.ptr, next.value().ptr))
    }

    /// The entry under the cursor, borrowed in place; `None` once
    /// exhausted.
    #[inline]
    pub(crate) fn get(&self) -> Option<EntryRef<'_>> {
        // The owner keeps the list alive for as long as `self` is borrowed.
        let (node, value) = self.at?;
        Some(entry_ref(NodeRef::new(node), ValueRef::new(value)))
    }

    /// The entry under the cursor, owned: key and value share the arena's
    /// chunks. `None` once exhausted.
    pub(crate) fn to_entry(&self) -> Option<Entry> {
        let (node, value) = self.at?;
        Some(to_entry(NodeRef::new(node), ValueRef::new(value)))
    }

    /// Steps to the next entry. A no-op once exhausted.
    pub(crate) fn advance(&mut self) {
        let Some((node, _)) = self.at else {
            return;
        };
        self.at = self.onto(NodeRef::follow(&NodeRef::new(node).tower()[0]));
    }

    /// Exhausts the cursor.
    pub(crate) fn close(&mut self) {
        self.at = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Inserts `key` with `seq` as both sequence number and value.
    fn put(list: &SkipList, key: &str, seq: u64) -> Option<usize> {
        list.insert(EntryRef {
            key: key.as_bytes(),
            value: seq.to_string().as_bytes(),
            seq,
            kind: EntryKind::Put,
        })
    }

    /// Every key from the cursor's position on.
    fn keys<O>(mut cursor: Cursor<O>) -> Vec<String> {
        let mut keys = Vec::new();
        while let Some(entry) = cursor.get() {
            keys.push(String::from_utf8(entry.key.to_vec()).unwrap());
            cursor.advance();
        }
        keys
    }

    #[test]
    fn insert_get_replace() {
        let list = SkipList::new();
        assert!(put(&list, "b", 2).is_none());
        assert!(put(&list, "a", 1).is_none());
        assert_eq!(put(&list, "b", 20), Some(1), "displaced \"2\"");
        assert_eq!(list.len(), 2);
        assert_eq!(list.get(b"a"), Some(Entry::put(&b"a"[..], &b"1"[..], 1)));
        assert_eq!(list.get(b"b"), Some(Entry::put(&b"b"[..], &b"20"[..], 20)));
        assert_eq!(list.get(b"c"), None);
    }

    #[test]
    fn iter_is_sorted_and_bounded() {
        let list = SkipList::new();
        for (i, k) in ["d", "a", "c", "b", "e"].iter().enumerate() {
            put(&list, k, i as u64);
        }
        assert_eq!(keys(list.cursor(None, None)), ["a", "b", "c", "d", "e"]);
        assert_eq!(keys(list.cursor(Some(b"c"), None)), ["c", "d", "e"]);
        assert_eq!(keys(list.cursor(Some(b"bb"), Some(b"e"))), ["c", "d"]);
        assert_eq!(keys(list.cursor(None, Some(b"a"))), [""; 0]);
        assert_eq!(keys(list.cursor(Some(b"z"), None)), [""; 0]);
        let mut spent = list.cursor(Some(b"e"), None);
        spent.advance();
        spent.advance();
        assert!(spent.get().is_none(), "advancing past the end stays there");
    }

    #[test]
    fn many_keys_stay_sorted() {
        let list = SkipList::new();
        for i in 0..2000u64 {
            put(&list, &format!("key{:05}", (i * 7919) % 2000), i);
        }
        assert_eq!(list.len(), 2000);
        let keys = keys(list.cursor(None, None));
        assert_eq!(keys.len(), 2000);
        assert!(keys.windows(2).all(|pair| pair[0] < pair[1]));
    }

    #[test]
    fn concurrent_readers_during_writes() {
        let list = Arc::new(SkipList::new());
        let stop = Arc::new(AtomicUsize::new(0));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let list = Arc::clone(&list);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut hits = 0u64;
                while stop.load(Acquire) == 0 {
                    for i in (0..512).step_by(7) {
                        if let Some(e) = list.get(format!("k{i:04}").as_bytes()) {
                            // A replaced value is always >= the original.
                            assert!(e.seq >= i, "key {:?} regressed", e.key);
                            assert_eq!(e.value, e.seq.to_string().as_bytes());
                            hits += 1;
                        }
                    }
                    let walked = keys(list.cursor(None, None));
                    assert!(
                        walked.windows(2).all(|pair| pair[0] < pair[1]),
                        "iteration out of order"
                    );
                }
                hits
            }));
        }
        for round in 0..8u64 {
            for i in 0..512u64 {
                put(&list, &format!("k{i:04}"), i + round * 1000);
            }
        }
        stop.store(1, Release);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(list.len(), 512);
        assert_eq!(list.get(b"k0000").unwrap().seq, 7000);
    }

    /// The arena holds the records and nothing else: a node is 16 bytes of
    /// fields, 8 per tower slot it reaches — no fixed-height tower — and
    /// its key; a value record is 16 bytes of fields and the value; each
    /// rounded up to 8.
    #[test]
    fn a_tower_reserves_exactly_its_height() {
        let list = SkipList::new();
        for i in 0..300u64 {
            // Keys and values of every length modulo 8.
            let key = format!("k{i:0width$}", width = 1 + i as usize % 9);
            list.insert(EntryRef {
                key: key.as_bytes(),
                value: &vec![b'v'; i as usize % 23],
                seq: i,
                kind: EntryKind::Put,
            });
        }
        let (mut records, mut heights) = (0, Vec::new());
        let mut cursor = list.cursor(None, None);
        while let Some((node, value)) = cursor.at {
            let (node, value) = (NodeRef::new(node), ValueRef::new(value));
            let height = node.tower().len();
            heights.push(height);
            records += (16 + 8 * height + node.key().len()).next_multiple_of(8);
            records += (16 + value.bytes().len()).next_multiple_of(8);
            cursor.advance();
        }
        assert_eq!(heights.len(), 300);
        assert!(heights.iter().any(|&h| h > 1), "towers of several heights");
        let writer = list.writer.lock().unwrap();
        assert_eq!(
            writer.arena.chunks.len(),
            1,
            "{records} bytes fit one chunk"
        );
        assert_eq!(writer.arena.used - CHUNK_HEADER, records);
    }
}
