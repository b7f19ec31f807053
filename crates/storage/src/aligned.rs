//! The page-frame pool: where every page read from a run file lands.
//!
//! A frame lives exactly as long as something is reading it, and then goes
//! back to the engine, not to malloc. The file backend reads into
//! [`AlignedBuf`]s drawn from an [`AlignedPool`]: a frame is allocated
//! (zeroed) once, frozen into a zero-copy [`Bytes`] when a read lands in
//! it, and returned to the pool's free list when the last clone of that
//! `Bytes` — a cursor, a cached page, a value handed to the caller —
//! drops. In steady state a read therefore allocates no frame-sized
//! block, zeroes nothing and copies nothing.
//!
//! A frame comes in two sizes: a *page frame* holds one page (a point
//! lookup's read, a cached page), an *extent frame* the run of pages one
//! sequential read brings in at once, which a cursor hands out page by
//! page as slices of it. Each size has its own free list; the idle budget
//! is one, in bytes, for both.
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

/// Bytes of idle frames a pool keeps for reuse, page and extent frames
/// together: the largest burst of pages a reader can release at once
/// without the next burst paying for fresh memory (8 192 frames of 4 KiB).
/// One constant for every pool; what is pinned beyond it is allocated and
/// freed as it comes.
pub const IDLE_FRAME_BYTES: usize = 32 << 20;

/// Counters of a pool (for tests and the backend info gauge), over frames
/// of both sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Frames ever allocated from the system allocator.
    pub allocated: u64,
    /// Acquisitions served by recycling a previously returned frame.
    pub recycled: u64,
    /// Frames sitting in the free lists right now.
    pub idle: u64,
    /// Frames acquired and not yet returned: held by a reader, a cursor,
    /// a cache, or a `Bytes` someone kept.
    pub outstanding: u64,
    /// Bytes of the idle frames: what the pool holds that nobody reads.
    pub idle_bytes: u64,
}

/// Which of a pool's two frame sizes a frame has.
#[derive(Clone, Copy)]
enum Size {
    Page = 0,
    Extent = 1,
}

/// The free lists — a stack per frame size threaded through the idle
/// frames themselves (each one's first word points at the next), so
/// returning a frame never allocates — and the counters, all under the
/// pool's one lock.
struct FreeList {
    heads: [*mut u8; 2],
    stats: PoolStats,
}

// SAFETY: `heads` and the chains behind them are unique owners of idle
// frames; they are only reached through the `Mutex` that holds the lists.
unsafe impl Send for FreeList {}

struct PoolInner {
    /// Bytes of a page frame and of an extent frame.
    sizes: [usize; 2],
    /// What a frame of each size is allocated as: that many bytes (at
    /// least a pointer's worth, for the free list's link) at the pool's
    /// alignment.
    layouts: [Layout; 2],
    max_idle_bytes: u64,
    free: Mutex<FreeList>,
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        for (&head, &layout) in self.free.get_mut().heads.iter().zip(&self.layouts) {
            let mut frame = head;
            while !frame.is_null() {
                // SAFETY: every frame on a list came from
                // `alloc_zeroed(layout)` of that list's size, is owned by
                // the list alone, and holds the link `AlignedBuf::drop`
                // wrote into its first word.
                unsafe {
                    let next = frame.cast::<*mut u8>().read();
                    dealloc(frame, layout);
                    frame = next;
                }
            }
        }
    }
}

/// A pool of page frames and extent frames of two fixed sizes, whose
/// addresses are aligned to a fixed power-of-two boundary. Cloning shares
/// the pool.
#[derive(Clone)]
pub struct AlignedPool {
    inner: Arc<PoolInner>,
}

impl AlignedPool {
    /// Creates a pool of `size`-byte frames aligned to `align` (a power of
    /// two), keeping idle frames up to [`IDLE_FRAME_BYTES`]. Its extent
    /// frames are page frames.
    pub fn new(size: usize, align: usize) -> Self {
        Self::with_extent(size, size, align)
    }

    /// Creates a pool of `size`-byte page frames and `extent`-byte extent
    /// frames aligned to `align` (a power of two), keeping idle frames of
    /// both sizes up to [`IDLE_FRAME_BYTES`] together.
    pub fn with_extent(size: usize, extent: usize, align: usize) -> Self {
        Self::with_max_idle([size, extent], align, IDLE_FRAME_BYTES)
    }

    fn with_max_idle(sizes: [usize; 2], align: usize, max_idle_bytes: usize) -> Self {
        assert!(sizes.iter().all(|&s| s > 0), "buffer size must be positive");
        assert!(
            align.is_power_of_two(),
            "alignment must be a power of two, got {align}"
        );
        let link = Layout::new::<*mut u8>();
        let layouts = sizes.map(|size| {
            Layout::from_size_align(size.max(link.size()), align.max(link.align()))
                .expect("invalid aligned-pool layout")
        });
        Self {
            inner: Arc::new(PoolInner {
                sizes,
                layouts,
                max_idle_bytes: max_idle_bytes as u64,
                free: Mutex::new(FreeList {
                    heads: [std::ptr::null_mut(); 2],
                    stats: PoolStats::default(),
                }),
            }),
        }
    }

    /// Page-frame size in bytes.
    pub fn buf_size(&self) -> usize {
        self.inner.sizes[Size::Page as usize]
    }

    /// Extent-frame size in bytes.
    pub fn extent_size(&self) -> usize {
        self.inner.sizes[Size::Extent as usize]
    }

    /// Guaranteed address alignment in bytes.
    pub fn align(&self) -> usize {
        self.inner.layouts[0].align()
    }

    /// Takes a page frame from its free list, or allocates a fresh zeroed
    /// one. A recycled frame holds whatever its last reader left in it.
    pub fn acquire(&self) -> AlignedBuf {
        self.acquire_sized(Size::Page)
    }

    /// [`acquire`](Self::acquire) for an extent frame.
    pub fn acquire_extent(&self) -> AlignedBuf {
        self.acquire_sized(Size::Extent)
    }

    fn acquire_sized(&self, size: Size) -> AlignedBuf {
        let class = size as usize;
        let recycled = {
            let mut free = self.inner.free.lock();
            free.stats.outstanding += 1;
            let head = free.heads[class];
            if head.is_null() {
                free.stats.allocated += 1;
            } else {
                // SAFETY: a non-null head is an idle frame this list owns,
                // with the next link in its first word.
                free.heads[class] = unsafe { head.cast::<*mut u8>().read() };
                free.stats.idle -= 1;
                free.stats.idle_bytes -= self.inner.sizes[class] as u64;
                free.stats.recycled += 1;
            }
            head
        };
        let ptr = if recycled.is_null() {
            // SAFETY: the layout has non-zero size (checked in new()).
            let ptr = unsafe { alloc_zeroed(self.inner.layouts[class]) };
            assert!(!ptr.is_null(), "page-frame allocation failed");
            ptr
        } else {
            recycled
        };
        AlignedBuf {
            ptr,
            size,
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
    size: Size,
    pool: Arc<PoolInner>,
}

// SAFETY: the frame behind `ptr` is uniquely owned by this value, so
// moving it to another thread moves the only access path.
unsafe impl Send for AlignedBuf {}
// SAFETY: `&AlignedBuf` only exposes `&[u8]` over memory nothing mutates
// while it is shared.
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// Bytes in the frame.
    #[inline]
    fn len(&self) -> usize {
        self.pool.sizes[self.size as usize]
    }

    /// The buffer's full extent, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: ptr is a live, initialised, unique allocation of at
        // least `len()` bytes, and `&mut self` makes this the only view.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len()) }
    }

    /// Freezes the buffer into an immutable, cheaply-cloneable [`Bytes`]
    /// of its first `len` bytes — zero-copy; the allocation returns to
    /// the pool when the last clone drops.
    pub fn freeze(self, len: usize) -> Bytes {
        assert!(len <= self.len(), "freeze length exceeds buffer");
        Bytes::from_owner(FrozenBuf { buf: self, len })
    }
}

impl AsRef<[u8]> for AlignedBuf {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        // SAFETY: ptr is a live, initialised allocation of at least
        // `len()` bytes that only `&mut self` methods write to.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len()) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        let (class, bytes) = (self.size as usize, self.len() as u64);
        let mut free = self.pool.free.lock();
        free.stats.outstanding -= 1;
        if free.stats.idle_bytes + bytes <= self.pool.max_idle_bytes {
            // SAFETY: the frame is at least a pointer long and at least
            // pointer-aligned (see `with_max_idle`), and nothing else can
            // reach it: this is its unique owner's drop.
            unsafe { self.ptr.cast::<*mut u8>().write(free.heads[class]) };
            free.heads[class] = self.ptr;
            free.stats.idle += 1;
            free.stats.idle_bytes += bytes;
        } else {
            drop(free);
            // SAFETY: the pointer came from alloc_zeroed with this size's
            // layout and is owned by nothing else.
            unsafe { dealloc(self.ptr, self.pool.layouts[class]) };
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
                idle_bytes: 0,
            }
        );
    }

    #[test]
    fn idle_frames_are_bounded_and_reused_newest_first() {
        let pool = AlignedPool::with_max_idle([512, 512], 512, 2 * 512);
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
            assert_eq!(pool.inner.max_idle_bytes as usize, IDLE_FRAME_BYTES);
            let pool = AlignedPool::with_extent(size, 16 * size, 512);
            assert_eq!(pool.inner.max_idle_bytes as usize, IDLE_FRAME_BYTES);
        }
    }

    #[test]
    fn page_and_extent_frames_share_one_idle_budget() {
        // Room for four pages: an idle extent of three leaves room for one.
        let pool = AlignedPool::with_max_idle([512, 3 * 512], 512, 4 * 512);
        let mut extent = pool.acquire_extent();
        assert_eq!(extent.as_mut_slice().len(), 3 * 512);
        assert_eq!(extent.as_mut_slice().as_ptr() as usize % 512, 0);
        let pages: Vec<AlignedBuf> = (0..3).map(|_| pool.acquire()).collect();
        assert_eq!(pool.stats().outstanding, 4);
        drop(extent);
        drop(pages); // one of three fits beside the extent, two deallocate
        let stats = pool.stats();
        assert_eq!((stats.idle, stats.idle_bytes), (2, 4 * 512));
        // Each size recycles from its own list.
        let (extent, page) = (pool.acquire_extent(), pool.acquire());
        assert_eq!(extent.as_ref().len(), 3 * 512);
        assert_eq!(page.as_ref().len(), 512);
        let stats = pool.stats();
        assert_eq!((stats.recycled, stats.allocated), (2, 4));
        assert_eq!((stats.idle, stats.idle_bytes), (0, 0));
        drop(extent.freeze(1024)); // a frozen extent returns whole
        assert_eq!(pool.stats().idle_bytes, 3 * 512);
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
