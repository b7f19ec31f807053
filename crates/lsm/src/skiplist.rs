//! A concurrent skiplist keyed by `Bytes`, specialized for the memtable.
//!
//! The engine's write path is already serialized (every `put` holds the
//! shard's write lock while it appends to the WAL and buffer), so this
//! list optimizes for the other side: **readers never take a lock**.
//! Point lookups, the [`Cursor`]s scans and flushes walk the buffer with,
//! and the observatory's classification hooks all traverse the towers with
//! `Acquire` loads while a writer may be splicing nodes in.
//!
//! The usual skiplist hazards are sidestepped structurally rather than
//! with epochs or hazard pointers:
//!
//! - **Nodes are never unlinked.** The memtable only ever inserts or
//!   replaces; deletes are tombstone values. Every published node stays
//!   reachable until the whole list drops.
//! - **Replaced values are retired, not freed.** An in-place update
//!   (§2: "only the latest one survives") swaps the node's value
//!   pointer and parks the old allocation on a garbage list that is
//!   only freed in `Drop`, so a reader that loaded the old pointer can
//!   keep dereferencing it. Callers hold the memtable via `Arc`, so
//!   `Drop` cannot race a reader.
//! - **Writers serialize on an internal mutex**, which also guards the
//!   deterministic tower-height RNG and the garbage list.
//!
//! Tower heights come from a fixed-seed xorshift so that rebuilding the
//! same op trace rebuilds the same structure — nothing in the engine
//! depends on that, but it keeps replays reproducible when debugging.

use bytes::Bytes;
use std::fmt;
use std::ptr;
use std::sync::atomic::{
    AtomicPtr, AtomicUsize,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::Mutex;

/// Tallest tower. With p = 1/2 this is comfortable for the few hundred
/// thousand entries a large write buffer can hold.
const MAX_HEIGHT: usize = 16;

struct Node<V> {
    key: Bytes,
    /// Current value; swapped on in-place replacement.
    value: AtomicPtr<V>,
    /// `next[lvl]` is the successor at level `lvl` for levels the node's
    /// tower reaches; null above (and at the tail).
    next: [AtomicPtr<Node<V>>; MAX_HEIGHT],
}

impl<V> Node<V> {
    fn new(key: Bytes, value: V) -> Box<Self> {
        Box::new(Self {
            key,
            value: AtomicPtr::new(Box::into_raw(Box::new(value))),
            next: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
        })
    }
}

struct WriterState<V> {
    /// xorshift64 state for tower heights; fixed seed, deterministic.
    rng: u64,
    /// Value allocations displaced by in-place replacement; freed in
    /// `Drop` (readers may still hold pointers to them until then).
    retired: Vec<*mut V>,
}

/// Concurrent sorted map: lock-free reads, mutex-serialized writes.
pub(crate) struct SkipList<V> {
    /// Sentinel with an empty key; never matched, only traversed.
    head: Box<Node<V>>,
    writer: Mutex<WriterState<V>>,
    len: AtomicUsize,
}

unsafe impl<V: Send> Send for SkipList<V> {}
unsafe impl<V: Send + Sync> Sync for SkipList<V> {}

impl<V> Default for SkipList<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> fmt::Debug for SkipList<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipList")
            .field("len", &self.len())
            .finish()
    }
}

impl<V> SkipList<V> {
    pub fn new() -> Self {
        Self {
            head: Box::new(Node {
                key: Bytes::new(),
                value: AtomicPtr::new(ptr::null_mut()),
                next: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            }),
            writer: Mutex::new(WriterState {
                rng: 0x9E37_79B9_7F4A_7C15,
                retired: Vec::new(),
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

    /// Inserts `value` under `key`, or replaces in place when the key is
    /// already present. Returns a reference to the **displaced** value
    /// if there was one — valid until the list drops, because retired
    /// allocations are only freed then.
    pub fn insert(&self, key: Bytes, value: V) -> Option<&V> {
        let mut writer = self.writer.lock().unwrap();
        let mut preds: [*const Node<V>; MAX_HEIGHT] = [&*self.head; MAX_HEIGHT];
        let mut node: *const Node<V> = &*self.head;
        let mut found: *const Node<V> = ptr::null();
        for lvl in (0..MAX_HEIGHT).rev() {
            loop {
                // Acquire pairs with the Release splice below so a fully
                // initialized node is visible once its pointer is.
                let next = unsafe { (*node).next[lvl].load(Acquire) };
                if next.is_null() {
                    break;
                }
                match unsafe { (*next).key.as_ref() }.cmp(key.as_ref()) {
                    std::cmp::Ordering::Less => node = next,
                    std::cmp::Ordering::Equal => {
                        found = next;
                        break;
                    }
                    std::cmp::Ordering::Greater => break,
                }
            }
            preds[lvl] = node;
        }

        if !found.is_null() {
            // In-place replacement: publish the new value, retire the old.
            let fresh = Box::into_raw(Box::new(value));
            let old = unsafe { (*found).value.swap(fresh, Release) };
            writer.retired.push(old);
            // Safe: retired allocations outlive every borrow of `self`.
            return Some(unsafe { &*old });
        }

        // New key: deterministic geometric height (p = 1/2).
        writer.rng ^= writer.rng << 13;
        writer.rng ^= writer.rng >> 7;
        writer.rng ^= writer.rng << 17;
        let height = ((writer.rng.trailing_zeros() as usize) + 1).min(MAX_HEIGHT);

        let node = Box::into_raw(Node::new(key, value));
        for (lvl, pred) in preds.iter().enumerate().take(height) {
            let succ = unsafe { (**pred).next[lvl].load(Relaxed) };
            unsafe { (*node).next[lvl].store(succ, Relaxed) };
            // Release publishes the node's key, value, and next pointers.
            unsafe { (**pred).next[lvl].store(node, Release) };
        }
        self.len.fetch_add(1, Relaxed);
        None
    }

    /// Lock-free point lookup.
    pub fn get(&self, key: &[u8]) -> Option<(&Bytes, &V)> {
        let mut node: *const Node<V> = &*self.head;
        for lvl in (0..MAX_HEIGHT).rev() {
            loop {
                let next = unsafe { (*node).next[lvl].load(Acquire) };
                if next.is_null() {
                    break;
                }
                match unsafe { (*next).key.as_ref() }.cmp(key) {
                    std::cmp::Ordering::Less => node = next,
                    std::cmp::Ordering::Equal => {
                        let value = unsafe { (*next).value.load(Acquire) };
                        return Some(unsafe { (&(*next).key, &*value) });
                    }
                    std::cmp::Ordering::Greater => break,
                }
            }
        }
        None
    }

    /// The last node with a key `< lo` (the head sentinel when there is
    /// none, or without `lo`).
    fn predecessor(&self, lo: Option<&[u8]>) -> *const Node<V> {
        let mut node: *const Node<V> = &*self.head;
        if let Some(lo) = lo {
            for lvl in (0..MAX_HEIGHT).rev() {
                loop {
                    // SAFETY: `node` is the sentinel or a published node;
                    // neither is freed before the list drops.
                    let next = unsafe { (*node).next[lvl].load(Acquire) };
                    // SAFETY: a non-null `next` was published by a Release
                    // store after its key was initialised.
                    if next.is_null() || unsafe { (*next).key.as_ref() } >= lo {
                        break;
                    }
                    node = next;
                }
            }
        }
        node
    }

    /// A cursor borrowing the list, on the first key `>= lo` (the front
    /// without `lo`) and ending before `hi`.
    #[cfg(test)]
    fn cursor(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Cursor<V, &Self> {
        // SAFETY: the owner is a borrow of this very list.
        unsafe { Cursor::new(self, self, lo, hi.map(Bytes::copy_from_slice)) }
    }
}

impl<V> Drop for SkipList<V> {
    fn drop(&mut self) {
        let mut node = *self.head.next[0].get_mut();
        while !node.is_null() {
            let boxed = unsafe { Box::from_raw(node) };
            drop(unsafe { Box::from_raw(boxed.value.load(Relaxed)) });
            node = boxed.next[0].load(Relaxed);
        }
        let writer = self.writer.get_mut().unwrap();
        for retired in writer.retired.drain(..) {
            drop(unsafe { Box::from_raw(retired) });
        }
    }
}

/// A lock-free in-order walk of a list's level 0, positioned on one entry
/// at a time, that owns whatever keeps the list alive (`O`: a borrow of
/// it, or an `Arc` of the structure it is a field of) — so it can outlive
/// the scope it was opened in, be stored in a merge's source set, and move
/// to a merge worker.
///
/// The value under the cursor is the one its node held when the cursor
/// stepped onto it: a writer replacing the value in place meanwhile does
/// not change what the cursor shows (the displaced allocation is retired,
/// not freed). Nodes spliced in behind the cursor are not observed; ones
/// spliced in ahead of it are.
pub(crate) struct Cursor<V, O> {
    owner: O,
    /// The node under the cursor; null once exhausted.
    node: *const Node<V>,
    /// `node`'s value, loaded once when the cursor stepped onto it.
    value: *const V,
    /// Exclusive upper bound: the cursor is exhausted from the first key
    /// `>= hi` on.
    hi: Option<Bytes>,
}

// SAFETY: the pointers lead into the list `owner` keeps alive, where the
// cursor only reads: keys are immutable once published, `next` and `value`
// are atomics, and a value behind a loaded pointer is never written again.
// That is shared access to `V` from the cursor's thread (`V: Sync`), next to
// a writer that may drop displaced values when the list drops on whichever
// thread lets go of it last (`V: Send`); the owner moves with the cursor.
unsafe impl<V: Send + Sync, O: Send> Send for Cursor<V, O> {}

impl<V, O> Cursor<V, O> {
    /// A cursor over `list` on the first key `>= lo` (the front without
    /// `lo`), ending before `hi`.
    ///
    /// # Safety
    /// `owner` must keep `list` alive — neither dropped nor replaced — for
    /// as long as it exists itself.
    pub(crate) unsafe fn new(
        owner: O,
        list: &SkipList<V>,
        lo: Option<&[u8]>,
        hi: Option<Bytes>,
    ) -> Self {
        let mut cursor = Self {
            owner,
            node: list.predecessor(lo),
            value: ptr::null(),
            hi,
        };
        cursor.advance();
        cursor
    }

    /// What keeps the list alive.
    pub(crate) fn owner(&self) -> &O {
        &self.owner
    }

    /// The exclusive upper bound the cursor was opened with.
    pub(crate) fn hi(&self) -> Option<&Bytes> {
        self.hi.as_ref()
    }

    /// Key and value under the cursor; `None` once exhausted.
    #[inline]
    pub(crate) fn get(&self) -> Option<(&Bytes, &V)> {
        if self.node.is_null() {
            return None;
        }
        // SAFETY: a non-null `node` is a published node of the list the
        // owner keeps alive, and `value` was loaded from it: both live
        // until the list drops, which is after `self` does.
        Some(unsafe { (&(*self.node).key, &*self.value) })
    }

    /// Steps to the next entry. A no-op once exhausted.
    pub(crate) fn advance(&mut self) {
        if self.node.is_null() {
            return;
        }
        // SAFETY: as in `get`; Acquire pairs with the Release splice, so a
        // node seen here has its key, value and tower initialised.
        let next = unsafe { (*self.node).next[0].load(Acquire) };
        let past_hi = |next: *const Node<V>| {
            // SAFETY: `next` is non-null here, hence a published node.
            let key = unsafe { (*next).key.as_ref() };
            self.hi.as_deref().is_some_and(|hi| key >= hi)
        };
        if next.is_null() || past_hi(next) {
            self.close();
        } else {
            self.node = next;
            // SAFETY: as above. The value pointer is read once per
            // position, so key, value and whatever else `V` carries come
            // from one version of the entry.
            self.value = unsafe { (*next).value.load(Acquire) };
        }
    }

    /// Exhausts the cursor.
    pub(crate) fn close(&mut self) {
        self.node = ptr::null();
        self.value = ptr::null();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// Every key from the cursor's position on.
    fn keys<V, O>(mut cursor: Cursor<V, O>) -> Vec<String> {
        let mut keys = Vec::new();
        while let Some((key, _)) = cursor.get() {
            keys.push(String::from_utf8(key.to_vec()).unwrap());
            cursor.advance();
        }
        keys
    }

    #[test]
    fn insert_get_replace() {
        let list: SkipList<u32> = SkipList::new();
        assert!(list.insert(b("b"), 2).is_none());
        assert!(list.insert(b("a"), 1).is_none());
        assert_eq!(list.insert(b("b"), 20), Some(&2));
        assert_eq!(list.len(), 2);
        assert_eq!(list.get(b"a"), Some((&b("a"), &1)));
        assert_eq!(list.get(b"b"), Some((&b("b"), &20)));
        assert_eq!(list.get(b"c"), None);
    }

    #[test]
    fn iter_is_sorted_and_bounded() {
        let list: SkipList<u32> = SkipList::new();
        for (i, k) in ["d", "a", "c", "b", "e"].iter().enumerate() {
            list.insert(b(k), i as u32);
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
        let list: SkipList<usize> = SkipList::new();
        for i in 0..2000usize {
            list.insert(b(&format!("key{:05}", (i * 7919) % 2000)), i);
        }
        assert_eq!(list.len(), 2000);
        let keys = keys(list.cursor(None, None));
        assert_eq!(keys.len(), 2000);
        assert!(keys.windows(2).all(|pair| pair[0] < pair[1]));
    }

    #[test]
    fn concurrent_readers_during_writes() {
        let list: Arc<SkipList<u64>> = Arc::new(SkipList::new());
        let stop = Arc::new(AtomicUsize::new(0));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let list = Arc::clone(&list);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut hits = 0u64;
                while stop.load(Acquire) == 0 {
                    for i in (0..512).step_by(7) {
                        if let Some((k, v)) = list.get(format!("k{i:04}").as_bytes()) {
                            // A replaced value is always >= the original.
                            assert!(*v >= (i as u64), "key {k:?} regressed");
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
                list.insert(b(&format!("k{i:04}")), i + round * 1000);
            }
        }
        stop.store(1, Release);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(list.len(), 512);
        assert_eq!(*list.get(b"k0000").unwrap().1, 7000);
    }
}
