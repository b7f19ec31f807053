//! The page-frame pool: where every page read from a run file lands.
//!
//! A page frame lives exactly as long as something is reading it, and then
//! goes back to the engine, not to malloc. The file backend reads into
//! [`AlignedBuf`]s drawn from an [`AlignedPool`]: a frame is allocated
//! (zeroed) once, frozen into a zero-copy [`Bytes`] when a read lands in
//! it, and returned to the pool's free list when the last clone of that
//! `Bytes` — a cursor, a cached page, a value handed to the caller —
//! drops. In steady state a page read therefore allocates no page-sized
//! block, zeroes nothing and copies nothing.
//!
//! Frames carry an explicit address alignment because O_DIRECT transfers
//! require the user buffer's *address* to be aligned to the device's
//! logical block size (length and offset too, which the backend checks
//! separately); the buffered backend asks for none beyond a pointer's.
//!
//! The pool keeps idle frames up to [`IDLE_FRAME_BYTES`] and frees what
//! comes back beyond that. The budget exists because the alternative is
//! worse than it looks: a reader that pins a burst of pages and lets them
//! go at once (a batch of range scans whose rows are checked together)
//! hands malloc tens of megabytes at the top of the heap, glibc trims them
//! back to the kernel, and the next burst page-faults every frame in again
//! — measured at 1.4 µs a page here, a third of a scan.

use bytes::Bytes;
use parking_lot::Mutex;
use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::sync::Arc;

/// Bytes of idle frames a pool keeps for reuse: the largest burst of pages
/// a reader can release at once without the next burst paying for fresh
/// memory (8 192 frames of 4 KiB). One constant for every pool; what is
/// pinned beyond it is allocated and freed as it comes.
pub const IDLE_FRAME_BYTES: usize = 32 << 20;

/// Counters of a pool (for tests and the backend info gauge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Frames ever allocated from the system allocator.
    pub allocated: u64,
    /// Acquisitions served by recycling a previously returned frame.
    pub recycled: u64,
    /// Frames sitting in the free list right now.
    pub idle: u64,
    /// Frames acquired and not yet returned: held by a reader, a cursor,
    /// a cache, or a `Bytes` someone kept.
    pub outstanding: u64,
}

/// The free list — a stack threaded through the idle frames themselves
/// (each one's first word points at the next), so returning a frame never
/// allocates — and the counters, all under the pool's one lock.
struct FreeList {
    head: *mut u8,
    stats: PoolStats,
}

// SAFETY: `head` and the chain behind it are unique owners of idle frames;
// they are only reached through the `Mutex` that holds the list.
unsafe impl Send for FreeList {}

struct PoolInner {
    size: usize,
    /// What a frame is allocated as: `size` bytes (at least a pointer's
    /// worth, for the free list's link) at the pool's alignment.
    layout: Layout,
    max_idle: u64,
    free: Mutex<FreeList>,
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        let mut frame = self.free.get_mut().head;
        while !frame.is_null() {
            // SAFETY: every frame on the list came from
            // `alloc_zeroed(self.layout)`, is owned by the list alone, and
            // holds the link `AlignedBuf::drop` wrote into its first word.
            unsafe {
                let next = frame.cast::<*mut u8>().read();
                dealloc(frame, self.layout);
                frame = next;
            }
        }
    }
}

/// A pool of fixed-size page frames whose addresses are aligned to a fixed
/// power-of-two boundary. Cloning shares the pool.
#[derive(Clone)]
pub struct AlignedPool {
    inner: Arc<PoolInner>,
}

impl AlignedPool {
    /// Creates a pool of `size`-byte frames aligned to `align` (a power of
    /// two), keeping idle frames up to [`IDLE_FRAME_BYTES`].
    pub fn new(size: usize, align: usize) -> Self {
        Self::with_max_idle(size, align, IDLE_FRAME_BYTES / size.max(1))
    }

    fn with_max_idle(size: usize, align: usize, max_idle: usize) -> Self {
        assert!(size > 0, "buffer size must be positive");
        assert!(
            align.is_power_of_two(),
            "alignment must be a power of two, got {align}"
        );
        let link = Layout::new::<*mut u8>();
        let layout = Layout::from_size_align(size.max(link.size()), align.max(link.align()))
            .expect("invalid aligned-pool layout");
        Self {
            inner: Arc::new(PoolInner {
                size,
                layout,
                max_idle: max_idle as u64,
                free: Mutex::new(FreeList {
                    head: std::ptr::null_mut(),
                    stats: PoolStats::default(),
                }),
            }),
        }
    }

    /// Buffer size in bytes.
    pub fn buf_size(&self) -> usize {
        self.inner.size
    }

    /// Guaranteed address alignment in bytes.
    pub fn align(&self) -> usize {
        self.inner.layout.align()
    }

    /// Takes a frame from the free list, or allocates a fresh zeroed one.
    /// A recycled frame holds whatever its last reader left in it.
    pub fn acquire(&self) -> AlignedBuf {
        let recycled = {
            let mut free = self.inner.free.lock();
            free.stats.outstanding += 1;
            let head = free.head;
            if head.is_null() {
                free.stats.allocated += 1;
            } else {
                // SAFETY: a non-null head is an idle frame this list owns,
                // with the next link in its first word.
                free.head = unsafe { head.cast::<*mut u8>().read() };
                free.stats.idle -= 1;
                free.stats.recycled += 1;
            }
            head
        };
        let ptr = if recycled.is_null() {
            // SAFETY: the layout has non-zero size (checked in new()).
            let ptr = unsafe { alloc_zeroed(self.inner.layout) };
            assert!(!ptr.is_null(), "page-frame allocation failed");
            ptr
        } else {
            recycled
        };
        AlignedBuf {
            ptr,
            pool: Arc::clone(&self.inner),
        }
    }

    /// The pool's counters, read under its lock: one consistent snapshot.
    pub fn stats(&self) -> PoolStats {
        self.inner.free.lock().stats
    }
}

/// One pooled buffer, exclusively owned. Returns to its pool on drop —
/// including when the drop happens inside a [`Bytes`] made by
/// [`freeze`](AlignedBuf::freeze), so pages handed to readers recycle
/// their storage when the last clone goes away.
pub struct AlignedBuf {
    ptr: *mut u8,
    pool: Arc<PoolInner>,
}

// SAFETY: the frame behind `ptr` is uniquely owned by this value, so
// moving it to another thread moves the only access path.
unsafe impl Send for AlignedBuf {}
// SAFETY: `&AlignedBuf` only exposes `&[u8]` over memory nothing mutates
// while it is shared.
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// The buffer's full extent, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: ptr is a live, initialised, unique allocation of at
        // least pool.size bytes, and `&mut self` makes this the only view.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.pool.size) }
    }

    /// Freezes the buffer into an immutable, cheaply-cloneable [`Bytes`]
    /// of its first `len` bytes — zero-copy; the allocation returns to
    /// the pool when the last clone drops.
    pub fn freeze(self, len: usize) -> Bytes {
        assert!(len <= self.pool.size, "freeze length exceeds buffer");
        Bytes::from_owner(FrozenBuf { buf: self, len })
    }
}

impl AsRef<[u8]> for AlignedBuf {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        // SAFETY: ptr is a live, initialised allocation of at least
        // pool.size bytes that only `&mut self` methods write to.
        unsafe { std::slice::from_raw_parts(self.ptr, self.pool.size) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        let mut free = self.pool.free.lock();
        free.stats.outstanding -= 1;
        if free.stats.idle < self.pool.max_idle {
            // SAFETY: the frame is at least a pointer long and at least
            // pointer-aligned (see `with_max_idle`), and nothing else can
            // reach it: this is its unique owner's drop.
            unsafe { self.ptr.cast::<*mut u8>().write(free.head) };
            free.head = self.ptr;
            free.stats.idle += 1;
        } else {
            drop(free);
            // SAFETY: the pointer came from alloc_zeroed with this layout
            // and is owned by nothing else.
            unsafe { dealloc(self.ptr, self.pool.layout) };
        }
    }
}

/// Length-capped view of an [`AlignedBuf`], the owner type behind
/// [`AlignedBuf::freeze`]'s `Bytes`.
struct FrozenBuf {
    buf: AlignedBuf,
    len: usize,
}

impl AsRef<[u8]> for FrozenBuf {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.buf.as_ref()[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_aligned_and_sized() {
        for align in [1usize, 512, 4096] {
            let pool = AlignedPool::new(8192, align);
            let mut buf = pool.acquire();
            assert_eq!(buf.as_ref().len(), 8192);
            assert_eq!(buf.as_mut_slice().as_ptr() as usize % align, 0);
            assert!(
                buf.as_ref().iter().all(|&b| b == 0),
                "fresh frames are zeroed"
            );
        }
        // A frame shorter than the free list's link still recycles.
        let tiny = AlignedPool::new(3, 1);
        let mut buf = tiny.acquire();
        buf.as_mut_slice().copy_from_slice(b"abc");
        assert_eq!(&buf.freeze(3)[..], b"abc");
        assert_eq!(tiny.acquire().as_ref().len(), 3);
        assert_eq!(tiny.stats().recycled, 1);
    }

    #[test]
    fn freeze_is_zero_copy_and_recycles() {
        let pool = AlignedPool::new(4096, 512);
        let mut buf = pool.acquire();
        buf.as_mut_slice()[..5].copy_from_slice(b"hello");
        let addr = buf.as_ref().as_ptr() as usize;
        let bytes = buf.freeze(5);
        assert_eq!(&bytes[..], b"hello");
        assert_eq!(bytes.as_ref().as_ptr() as usize, addr, "no copy");
        // A slice of the page keeps the frame out of the pool, as the page
        // itself does.
        let tail = bytes.slice(3..);
        drop(bytes);
        assert_eq!(pool.stats().outstanding, 1);
        assert_eq!(&tail[..], b"lo");
        drop(tail);
        assert_eq!((pool.stats().outstanding, pool.stats().idle), (0, 1));
        // The allocation went back to the free list: the next acquire
        // recycles it.
        let again = pool.acquire();
        assert_eq!(again.as_ref().as_ptr() as usize, addr);
        assert_eq!(
            pool.stats(),
            PoolStats {
                allocated: 1,
                recycled: 1,
                idle: 0,
                outstanding: 1,
            }
        );
    }

    #[test]
    fn idle_frames_are_bounded_and_reused_newest_first() {
        let pool = AlignedPool::with_max_idle(512, 512, 2);
        let bufs: Vec<AlignedBuf> = (0..5).map(|_| pool.acquire()).collect();
        assert_eq!(pool.stats().allocated, 5);
        assert_eq!(pool.stats().outstanding, 5);
        let addrs: Vec<usize> = bufs.iter().map(|b| b.as_ref().as_ptr() as usize).collect();
        drop(bufs); // only 2 survive into the free list, 3 deallocate
        assert_eq!((pool.stats().idle, pool.stats().outstanding), (2, 0));
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(
            a.as_ref().as_ptr() as usize,
            addrs[1],
            "a stack: last in, first out"
        );
        assert_eq!(b.as_ref().as_ptr() as usize, addrs[0]);
        let _c = pool.acquire();
        let stats = pool.stats();
        assert_eq!(stats.recycled, 2);
        assert_eq!(stats.allocated, 6, "third acquire had to allocate");
        assert_eq!((stats.idle, stats.outstanding), (0, 3));
    }

    #[test]
    fn the_idle_budget_is_one_constant_in_bytes() {
        for size in [512usize, 4096, 65536] {
            let pool = AlignedPool::new(size, 512);
            assert_eq!(pool.inner.max_idle as usize * size, IDLE_FRAME_BYTES);
        }
    }

    #[test]
    fn clones_share_the_pool_and_frames_outlive_its_handles() {
        let pool = AlignedPool::new(1024, 512);
        let clone = pool.clone();
        drop(pool.acquire());
        drop(clone.acquire());
        assert_eq!(clone.stats().allocated, 1);
        assert_eq!(clone.stats().recycled, 1);
        // A page still being read keeps the pool's free list alive; the
        // frame returns to it, and the list frees it, after the last handle.
        let page = clone.acquire().freeze(1024);
        drop((pool, clone));
        assert_eq!(page.len(), 1024);
    }

    #[test]
    fn frames_cross_threads() {
        let pool = AlignedPool::new(256, 64);
        let pages: Vec<Bytes> = (0..8u8)
            .map(|i| {
                let mut buf = pool.acquire();
                buf.as_mut_slice().fill(i);
                buf.freeze(256)
            })
            .collect();
        std::thread::scope(|s| {
            for (i, page) in pages.into_iter().enumerate() {
                let pool = &pool;
                s.spawn(move || {
                    assert!(page.iter().all(|&b| b == i as u8));
                    drop(page);
                    drop(pool.acquire());
                });
            }
        });
        let stats = pool.stats();
        assert_eq!((stats.outstanding, stats.idle), (0, 8));
        assert_eq!(stats.allocated, 8);
    }
}
