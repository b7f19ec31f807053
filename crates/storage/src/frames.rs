//! The page-frame pool: where every page read from a run file lands.
//!
//! A frame lives exactly as long as something is reading it, and then goes
//! back to the engine, not to malloc. The file backend reads into
//! [`Frame`]s drawn from a [`FramePool`]: a frame is allocated (zeroed)
//! once, frozen into a zero-copy [`Bytes`] when a read lands in it, and
//! returned to the pool's free list when the last clone of that `Bytes` —
//! a cursor, a cached page, a value handed to the caller — drops. In
//! steady state a read therefore allocates no frame-sized block, zeroes
//! nothing and copies nothing.
//!
//! A frame comes in two sizes: a *page frame* holds one page (a point
//! lookup's read, a cached page), an *extent frame* the run of pages one
//! sequential read brings in at once, which a cursor hands out page by
//! page as slices of it. Each size has its own free list; the idle budget
//! is one, in bytes, for both.
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

/// The free lists — a stack of idle frames per frame size — and the
/// counters, all under the pool's one lock.
#[derive(Default)]
struct FreeList {
    idle: [Vec<Box<[u8]>>; 2],
    stats: PoolStats,
}

struct PoolInner {
    /// Bytes of a page frame and of an extent frame.
    sizes: [usize; 2],
    max_idle_bytes: u64,
    free: Mutex<FreeList>,
}

/// A pool of page frames and extent frames of two fixed sizes. Cloning
/// shares the pool.
#[derive(Clone)]
pub struct FramePool {
    inner: Arc<PoolInner>,
}

impl FramePool {
    /// Creates a pool of `size`-byte page frames and `extent`-byte extent
    /// frames, keeping idle frames of both sizes up to [`IDLE_FRAME_BYTES`]
    /// together.
    pub fn with_extent(size: usize, extent: usize) -> Self {
        Self::with_max_idle([size, extent], IDLE_FRAME_BYTES)
    }

    fn with_max_idle(sizes: [usize; 2], max_idle_bytes: usize) -> Self {
        assert!(sizes.iter().all(|&s| s > 0), "frame size must be positive");
        Self {
            inner: Arc::new(PoolInner {
                sizes,
                max_idle_bytes: max_idle_bytes as u64,
                free: Mutex::default(),
            }),
        }
    }

    /// Takes a page frame from its free list, or allocates a fresh zeroed
    /// one. A recycled frame holds whatever its last reader left in it.
    pub fn acquire(&self) -> Frame {
        self.acquire_sized(Size::Page)
    }

    /// [`acquire`](Self::acquire) for an extent frame.
    pub fn acquire_extent(&self) -> Frame {
        self.acquire_sized(Size::Extent)
    }

    fn acquire_sized(&self, size: Size) -> Frame {
        let class = size as usize;
        let recycled = {
            let mut free = self.inner.free.lock();
            free.stats.outstanding += 1;
            let buf = free.idle[class].pop();
            match &buf {
                Some(buf) => {
                    free.stats.idle -= 1;
                    free.stats.idle_bytes -= buf.len() as u64;
                    free.stats.recycled += 1;
                }
                None => free.stats.allocated += 1,
            }
            buf
        };
        let buf = recycled.unwrap_or_else(|| vec![0; self.inner.sizes[class]].into_boxed_slice());
        Frame {
            buf,
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
/// [`freeze`](Frame::freeze), so pages handed to readers recycle their
/// storage when the last clone goes away.
pub struct Frame {
    buf: Box<[u8]>,
    size: Size,
    pool: Arc<PoolInner>,
}

impl Frame {
    /// The frame's full extent, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Freezes the frame into an immutable, cheaply-cloneable [`Bytes`] of
    /// its first `len` bytes — zero-copy; the frame returns to the pool
    /// when the last clone drops.
    pub fn freeze(self, len: usize) -> Bytes {
        assert!(len <= self.buf.len(), "freeze length exceeds frame");
        Bytes::from_owner(FrozenFrame { frame: self, len })
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        let bytes = buf.len() as u64;
        let mut free = self.pool.free.lock();
        free.stats.outstanding -= 1;
        if free.stats.idle_bytes + bytes <= self.pool.max_idle_bytes {
            free.idle[self.size as usize].push(buf);
            free.stats.idle += 1;
            free.stats.idle_bytes += bytes;
        } else {
            drop(free);
            drop(buf);
        }
    }
}

/// Length-capped view of a [`Frame`], the owner type behind
/// [`Frame::freeze`]'s `Bytes`.
struct FrozenFrame {
    frame: Frame,
    len: usize,
}

impl AsRef<[u8]> for FrozenFrame {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.frame.buf[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_frames_are_zeroed_and_sized() {
        for size in [3usize, 512, 8192] {
            let pool = FramePool::with_extent(size, size);
            let mut frame = pool.acquire();
            assert_eq!(frame.as_mut_slice().len(), size);
            assert!(frame.buf.iter().all(|&b| b == 0), "fresh frames are zeroed");
        }
    }

    #[test]
    fn freeze_is_zero_copy_and_recycles() {
        let pool = FramePool::with_extent(4096, 4096);
        let mut frame = pool.acquire();
        frame.as_mut_slice()[..5].copy_from_slice(b"hello");
        let addr = frame.buf.as_ptr() as usize;
        let bytes = frame.freeze(5);
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
        assert_eq!(again.buf.as_ptr() as usize, addr);
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
        let pool = FramePool::with_max_idle([512, 512], 2 * 512);
        let frames: Vec<Frame> = (0..5).map(|_| pool.acquire()).collect();
        assert_eq!(pool.stats().allocated, 5);
        assert_eq!(pool.stats().outstanding, 5);
        let addrs: Vec<usize> = frames.iter().map(|f| f.buf.as_ptr() as usize).collect();
        drop(frames); // only 2 survive into the free list, 3 deallocate
        assert_eq!((pool.stats().idle, pool.stats().outstanding), (2, 0));
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(
            a.buf.as_ptr() as usize,
            addrs[1],
            "a stack: last in, first out"
        );
        assert_eq!(b.buf.as_ptr() as usize, addrs[0]);
        let _c = pool.acquire();
        let stats = pool.stats();
        assert_eq!(stats.recycled, 2);
        assert_eq!(stats.allocated, 6, "third acquire had to allocate");
        assert_eq!((stats.idle, stats.outstanding), (0, 3));
    }

    #[test]
    fn the_idle_budget_is_one_constant_in_bytes() {
        for size in [512usize, 4096, 65536] {
            let pool = FramePool::with_extent(size, 16 * size);
            assert_eq!(pool.inner.max_idle_bytes as usize, IDLE_FRAME_BYTES);
        }
    }

    #[test]
    fn page_and_extent_frames_share_one_idle_budget() {
        // Room for four pages: an idle extent of three leaves room for one.
        let pool = FramePool::with_max_idle([512, 3 * 512], 4 * 512);
        let mut extent = pool.acquire_extent();
        assert_eq!(extent.as_mut_slice().len(), 3 * 512);
        let pages: Vec<Frame> = (0..3).map(|_| pool.acquire()).collect();
        assert_eq!(pool.stats().outstanding, 4);
        drop(extent);
        drop(pages); // one of three fits beside the extent, two deallocate
        let stats = pool.stats();
        assert_eq!((stats.idle, stats.idle_bytes), (2, 4 * 512));
        // Each size recycles from its own list.
        let (extent, page) = (pool.acquire_extent(), pool.acquire());
        assert_eq!(extent.buf.len(), 3 * 512);
        assert_eq!(page.buf.len(), 512);
        let stats = pool.stats();
        assert_eq!((stats.recycled, stats.allocated), (2, 4));
        assert_eq!((stats.idle, stats.idle_bytes), (0, 0));
        drop(extent.freeze(1024)); // a frozen extent returns whole
        assert_eq!(pool.stats().idle_bytes, 3 * 512);
    }

    #[test]
    fn clones_share_the_pool_and_frames_outlive_its_handles() {
        let pool = FramePool::with_extent(1024, 1024);
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
        let pool = FramePool::with_extent(256, 256);
        let pages: Vec<Bytes> = (0..8u8)
            .map(|i| {
                let mut frame = pool.acquire();
                frame.as_mut_slice().fill(i);
                frame.freeze(256)
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
