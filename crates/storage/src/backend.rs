//! The run store: where pages physically live.
//!
//! A [`FileBackend`] stores immutable *runs* (sorted arrays in the paper's
//! terms) as sequences of fixed-size pages, one file per run. Runs are
//! written once, in extents appended in order, then sealed; afterwards
//! pages can be read randomly. This mirrors the LSM-tree contract: "the
//! runs at Level 1 and higher are immutable" (§2). The files live on an
//! [`Fs`]: the operating system's for a durable store, memory for a
//! volatile one — the same code counts and serves the pages of both.

use crate::error::{Result, StorageError};
use crate::frames::PoolStats;
use crate::fs::Fs;
use crate::handles::RunHandles;
use bytes::Bytes;
use std::path::PathBuf;
use std::sync::Arc;

/// Bytes one sequential read brings in at most: a cursor over a range of
/// a run's pages reads the next stretch of it, this long at most, in one
/// positional read, and hands its pages out one at a time.
pub const READ_EXTENT_BYTES: usize = 32 << 10;

/// Pages of `page_size` bytes in one read extent: at least one.
pub(crate) fn extent_pages(page_size: usize) -> u32 {
    (READ_EXTENT_BYTES / page_size).max(1) as u32
}

/// Identifier of a run within a backend. Monotonically increasing; never
/// reused, so stale ids fail loudly instead of aliasing new data.
pub type RunId = u64;

/// One file per run in a directory, named `<id>.run`, every open file held
/// by a [`RunHandles`] table and every page read into a frame of its pool.
/// Files are created, written, read, sealed, listed and deleted through an
/// [`Fs`], the OS page cache's or memory's.
pub struct FileBackend {
    page_size: usize,
    pub(crate) handles: RunHandles,
}

impl FileBackend {
    /// Opens (creating if needed) a backend rooted at `dir` on `fs`, with
    /// the given page size. Existing `.run` files become visible via
    /// [`list`](Self::list).
    pub fn open(fs: Arc<dyn Fs>, dir: impl Into<PathBuf>, page_size: usize) -> Result<Self> {
        let dir = dir.into();
        fs.create_dir(&dir)?;
        Ok(Self {
            page_size,
            handles: RunHandles::new(fs, dir, page_size),
        })
    }

    fn offset(&self, page_no: u32) -> u64 {
        page_no as u64 * self.page_size as u64
    }

    /// Appends an extent — a whole number of pages, the first of them page
    /// `first_page` — to a run being built, creating the run's file on
    /// page 0. A failure part-way may leave the extent's leading pages
    /// written.
    pub fn append_pages(&self, run: RunId, first_page: u32, data: &[u8]) -> Result<()> {
        if data.is_empty() || !data.len().is_multiple_of(self.page_size) {
            return Err(StorageError::BadPageSize {
                got: data.len(),
                want: self.page_size,
            });
        }
        let handle = self.handles.for_append(run, first_page)?;
        // One positional write for the whole extent.
        let file = &handle.file;
        Ok(self
            .handles
            .fs()
            .write_at(file, self.offset(first_page), data)?)
    }

    /// Seals a run: no further appends, and its data durable.
    pub fn seal(&self, run: RunId) -> Result<()> {
        self.handles.seal(run)
    }

    /// Makes the set of runs durable: a run sealed or deleted before this
    /// returns is, or is not, in the directory after a crash.
    pub fn sync_dir(&self) -> Result<()> {
        self.handles.sync_dir()
    }

    /// Pages one sequential read brings in at most: [`READ_EXTENT_BYTES`]
    /// of them, and at least one.
    pub fn extent_pages(&self) -> u32 {
        extent_pages(self.page_size)
    }

    /// Reads one page of a sealed (or in-construction) run into a page
    /// frame of the pool: one positional read, and no page-sized
    /// allocation, zeroing or copy besides once the pool is warm.
    pub fn read_page(&self, run: RunId, page_no: u32) -> Result<Bytes> {
        self.read_pages(run, page_no, 1)
    }

    /// Reads `count` pages of a run from page `first` on — at least one,
    /// at most [`extent_pages`](Self::extent_pages) — back to back, in one
    /// positional read into one frame of the pool: a page frame for one
    /// page, an extent frame for more. A page past the run's end is
    /// `NotFound`, naming the first such page.
    pub fn read_pages(&self, run: RunId, first: u32, count: u32) -> Result<Bytes> {
        assert!(
            (1..=self.extent_pages()).contains(&count),
            "a read of {count} pages"
        );
        let handle = self.handles.get(run)?;
        let pages = self.handles.pages(&handle)?;
        if first.saturating_add(count) > pages {
            let page = Some(first.max(pages));
            return Err(StorageError::NotFound { run, page });
        }
        let len = count as usize * self.page_size;
        let mut frame = match count {
            1 => self.handles.frames().acquire(),
            _ => self.handles.frames().acquire_extent(),
        };
        let buf = &mut frame.as_mut_slice()[..len];
        (self.handles.fs()).read_at(&handle.file, self.offset(first), buf)?;
        Ok(frame.freeze(len))
    }

    /// A copy of `page` in a page frame of its own: what a page of an
    /// extent is cached as, so that the cache never pins an extent.
    pub(crate) fn page_copy(&self, page: &[u8]) -> Bytes {
        let mut frame = self.handles.frames().acquire();
        frame.as_mut_slice().copy_from_slice(page);
        frame.freeze(self.page_size)
    }

    /// Number of pages currently in the run.
    pub fn pages(&self, run: RunId) -> Result<u32> {
        let handle = self.handles.get(run)?;
        self.handles.pages(&handle)
    }

    /// Deletes a run and reclaims its space.
    pub fn delete(&self, run: RunId) -> Result<()> {
        self.handles.delete(run)
    }

    /// Runs currently present, ascending. A directory that cannot be
    /// listed is an error, never an empty store.
    pub fn list(&self) -> Result<Vec<RunId>> {
        self.handles.list()
    }

    /// Counters of the pool every page read lands in.
    pub fn frame_stats(&self) -> PoolStats {
        self.handles.frames().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemFs, OsFs};

    fn roundtrip(backend: &FileBackend, page_size: usize) {
        let data_a: Vec<u8> = (0..page_size).map(|i| (i % 251) as u8).collect();
        let data_b: Vec<u8> = (0..page_size).map(|i| (i % 13) as u8).collect();
        backend.append_pages(1, 0, &data_a).unwrap();
        backend.append_pages(1, 1, &data_b).unwrap();
        backend.seal(1).unwrap();
        assert_eq!(backend.pages(1).unwrap(), 2);
        assert_eq!(&backend.read_page(1, 0).unwrap()[..], &data_a[..]);
        assert_eq!(&backend.read_page(1, 1).unwrap()[..], &data_b[..]);
        assert!(matches!(
            backend.read_page(1, 2),
            Err(StorageError::NotFound {
                run: 1,
                page: Some(2)
            })
        ));
        assert!(matches!(
            backend.read_page(9, 0),
            Err(StorageError::NotFound { run: 9, page: None })
        ));
        assert_eq!(backend.list().unwrap(), vec![1]);
        backend.delete(1).unwrap();
        assert!(backend.list().unwrap().is_empty());
        assert!(backend.delete(1).is_err());
    }

    #[test]
    fn mem_backend_roundtrip() {
        roundtrip(
            &FileBackend::open(Arc::new(MemFs::new()), "runs", 64).unwrap(),
            64,
        );
    }

    #[test]
    fn file_backend_roundtrip() {
        let dir = std::env::temp_dir().join(format!("monkey-fb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = FileBackend::open(Arc::new(OsFs), &dir, 64).unwrap();
        roundtrip(&backend, 64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Appends come in order: a run begins at page 0, and a sealed run
    /// takes no more.
    #[test]
    fn mem_rejects_non_sequential_append() {
        let b = FileBackend::open(Arc::new(MemFs::new()), "runs", 8).unwrap();
        assert!(b.append_pages(1, 1, &[0; 8]).is_err());
        b.append_pages(1, 0, &[0; 8]).unwrap();
        b.seal(1).unwrap();
        assert!(b.append_pages(1, 1, &[0; 8]).is_err());
    }

    #[test]
    fn file_rejects_wrong_page_size() {
        let dir = std::env::temp_dir().join(format!("monkey-fb2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = FileBackend::open(Arc::new(OsFs), &dir, 64).unwrap();
        assert!(matches!(
            b.append_pages(1, 0, &[0; 63]),
            Err(StorageError::BadPageSize { got: 63, want: 64 })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_backend_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("monkey-fb3-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let b = FileBackend::open(Arc::new(OsFs), &dir, 32).unwrap();
            b.append_pages(42, 0, &[7u8; 32]).unwrap();
            b.seal(42).unwrap();
        }
        let b = FileBackend::open(Arc::new(OsFs), &dir, 32).unwrap();
        assert_eq!(b.list().unwrap(), vec![42]);
        assert_eq!(&b.read_page(42, 0).unwrap()[..], &[7u8; 32][..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
