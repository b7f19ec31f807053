//! Storage backends: where pages physically live.
//!
//! A backend stores immutable *runs* (sorted arrays in the paper's terms) as
//! sequences of fixed-size pages. Runs are written once, page-append-only,
//! then sealed; afterwards pages can be read randomly. This mirrors the
//! LSM-tree contract: "the runs at Level 1 and higher are immutable" (§2).

use crate::aligned::PoolStats;
use crate::error::{Result, StorageError};
use crate::handles::RunHandles;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::PathBuf;

/// Identifier of a run within a backend. Monotonically increasing; never
/// reused, so stale ids fail loudly instead of aliasing new data.
pub type RunId = u64;

/// Physical page storage. Implementations must be thread-safe: the engine
/// reads concurrently with writes of new runs.
pub trait Backend: Send + Sync + 'static {
    /// Appends one page to a run being built, creating the run on first
    /// append. Pages arrive in order `0, 1, 2, ...`.
    fn append_page(&self, run: RunId, page_no: u32, data: &[u8]) -> Result<()>;

    /// Appends an extent — a whole number of `page_size`-byte pages, the
    /// first of them page `first_page` — to a run being built.
    ///
    /// Semantically identical to one [`append_page`] per page, in order: a
    /// failure part-way leaves the pages before it appended. Backends
    /// override it to write the extent in one transfer.
    ///
    /// [`append_page`]: Backend::append_page
    fn append_pages(
        &self,
        run: RunId,
        first_page: u32,
        data: &[u8],
        page_size: usize,
    ) -> Result<()> {
        for (page_no, page) in (first_page..).zip(data.chunks(page_size)) {
            self.append_page(run, page_no, page)?;
        }
        Ok(())
    }

    /// Seals a run: no further appends; data is durable after this returns.
    fn seal(&self, run: RunId) -> Result<()>;

    /// Reads one page of a sealed (or in-construction) run.
    fn read_page(&self, run: RunId, page_no: u32) -> Result<Bytes>;

    /// Reads `count` consecutive pages of one run starting at `start`.
    ///
    /// Semantically identical to `count` calls of [`read_page`]
    /// (including which page a `NotFound` names); backends override it to
    /// batch the physical transfers (io_uring multi-SQE submission).
    ///
    /// [`read_page`]: Backend::read_page
    fn read_batch(&self, run: RunId, start: u32, count: u32) -> Result<Vec<Bytes>> {
        (start..start + count)
            .map(|page_no| self.read_page(run, page_no))
            .collect()
    }

    /// Reads an arbitrary set of `(run, page)` addresses, returned in
    /// request order. Semantically identical to a [`read_page`] loop;
    /// backends override it to batch the physical transfers.
    ///
    /// [`read_page`]: Backend::read_page
    fn read_scattered(&self, reqs: &[(RunId, u32)]) -> Result<Vec<Bytes>> {
        reqs.iter()
            .map(|&(run, page_no)| self.read_page(run, page_no))
            .collect()
    }

    /// Number of pages currently in the run.
    fn pages(&self, run: RunId) -> Result<u32>;

    /// Deletes a run and reclaims its space.
    fn delete(&self, run: RunId) -> Result<()>;

    /// Runs currently present (for recovery and tests).
    fn list(&self) -> Vec<RunId>;

    /// Counters of the pool the backend's page frames come from; `None`
    /// for a backend that reads into no pool (the in-memory one hands out
    /// the pages it stores).
    fn frame_stats(&self) -> Option<PoolStats> {
        None
    }
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

/// Simulated disk holding every page in memory.
///
/// This is the default substrate for the experiment harness: it makes I/O
/// counts exactly reproducible and removes the physical device from the
/// measurement loop (see DESIGN.md §3 on the testbed substitution).
#[derive(Default)]
pub struct MemBackend {
    runs: RwLock<HashMap<RunId, Vec<Bytes>>>,
}

impl MemBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes held across all runs (for space-usage assertions).
    pub fn total_bytes(&self) -> usize {
        self.runs
            .read()
            .values()
            .map(|pages| pages.iter().map(Bytes::len).sum::<usize>())
            .sum()
    }
}

impl Backend for MemBackend {
    fn append_page(&self, run: RunId, page_no: u32, data: &[u8]) -> Result<()> {
        let mut runs = self.runs.write();
        let pages = runs.entry(run).or_default();
        if pages.len() != page_no as usize {
            return Err(StorageError::Corruption(format!(
                "non-sequential append to run {run}: page {page_no}, have {}",
                pages.len()
            )));
        }
        pages.push(Bytes::copy_from_slice(data));
        Ok(())
    }

    fn seal(&self, _run: RunId) -> Result<()> {
        Ok(())
    }

    fn read_page(&self, run: RunId, page_no: u32) -> Result<Bytes> {
        let runs = self.runs.read();
        let pages = runs
            .get(&run)
            .ok_or(StorageError::NotFound { run, page: None })?;
        pages
            .get(page_no as usize)
            .cloned()
            .ok_or(StorageError::NotFound {
                run,
                page: Some(page_no),
            })
    }

    fn pages(&self, run: RunId) -> Result<u32> {
        let runs = self.runs.read();
        runs.get(&run)
            .map(|p| p.len() as u32)
            .ok_or(StorageError::NotFound { run, page: None })
    }

    fn delete(&self, run: RunId) -> Result<()> {
        self.runs
            .write()
            .remove(&run)
            .map(|_| ())
            .ok_or(StorageError::NotFound { run, page: None })
    }

    fn list(&self) -> Vec<RunId> {
        let mut ids: Vec<_> = self.runs.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

// ---------------------------------------------------------------------------
// File backend
// ---------------------------------------------------------------------------

/// One file per run in a directory, named `<id>.run`, read and written
/// through the OS page cache on descriptors held by a [`RunHandles`]
/// table.
pub struct FileBackend {
    page_size: usize,
    pub(crate) handles: RunHandles,
}

impl FileBackend {
    /// Opens (creating if needed) a backend rooted at `dir` with the given
    /// page size. Existing `.run` files become visible via [`Backend::list`].
    pub fn open(dir: impl Into<PathBuf>, page_size: usize) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            page_size,
            handles: RunHandles::new(dir, page_size, 0, 1),
        })
    }
}

impl Backend for FileBackend {
    fn append_page(&self, run: RunId, page_no: u32, data: &[u8]) -> Result<()> {
        self.append_pages(run, page_no, data, self.page_size)
    }

    /// One positional write for the whole extent.
    fn append_pages(
        &self,
        run: RunId,
        first_page: u32,
        data: &[u8],
        page_size: usize,
    ) -> Result<()> {
        if page_size != self.page_size || data.is_empty() || !data.len().is_multiple_of(page_size) {
            return Err(StorageError::BadPageSize {
                got: data.len(),
                want: self.page_size,
            });
        }
        let handle = self.handles.for_append(run, first_page)?;
        handle.write_pages(first_page, data)?;
        Ok(())
    }

    fn seal(&self, run: RunId) -> Result<()> {
        self.handles.seal(run)
    }

    fn read_page(&self, run: RunId, page_no: u32) -> Result<Bytes> {
        let handle = self.handles.get(run)?;
        handle.check_range(run, page_no, 1)?;
        Ok(self.handles.read_frame(&handle, page_no)?)
    }

    fn pages(&self, run: RunId) -> Result<u32> {
        self.handles.get(run)?.pages()
    }

    fn delete(&self, run: RunId) -> Result<()> {
        self.handles.delete(run)
    }

    fn list(&self) -> Vec<RunId> {
        self.handles.list()
    }

    fn frame_stats(&self) -> Option<PoolStats> {
        Some(self.handles.frames().stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(backend: &dyn Backend, page_size: usize) {
        let data_a: Vec<u8> = (0..page_size).map(|i| (i % 251) as u8).collect();
        let data_b: Vec<u8> = (0..page_size).map(|i| (i % 13) as u8).collect();
        backend.append_page(1, 0, &data_a).unwrap();
        backend.append_page(1, 1, &data_b).unwrap();
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
        assert_eq!(backend.list(), vec![1]);
        backend.delete(1).unwrap();
        assert!(backend.list().is_empty());
        assert!(backend.delete(1).is_err());
    }

    #[test]
    fn mem_backend_roundtrip() {
        roundtrip(&MemBackend::new(), 64);
    }

    #[test]
    fn file_backend_roundtrip() {
        let dir = std::env::temp_dir().join(format!("monkey-fb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = FileBackend::open(&dir, 64).unwrap();
        roundtrip(&backend, 64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_rejects_non_sequential_append() {
        let b = MemBackend::new();
        assert!(b.append_page(1, 1, &[0; 8]).is_err());
        b.append_page(1, 0, &[0; 8]).unwrap();
        assert!(b.append_page(1, 2, &[0; 8]).is_err());
    }

    #[test]
    fn file_rejects_wrong_page_size() {
        let dir = std::env::temp_dir().join(format!("monkey-fb2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = FileBackend::open(&dir, 64).unwrap();
        assert!(matches!(
            b.append_page(1, 0, &[0; 63]),
            Err(StorageError::BadPageSize { got: 63, want: 64 })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_backend_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("monkey-fb3-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let b = FileBackend::open(&dir, 32).unwrap();
            b.append_page(42, 0, &[7u8; 32]).unwrap();
            b.seal(42).unwrap();
        }
        let b = FileBackend::open(&dir, 32).unwrap();
        assert_eq!(b.list(), vec![42]);
        assert_eq!(&b.read_page(42, 0).unwrap()[..], &[7u8; 32][..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_total_bytes() {
        let b = MemBackend::new();
        b.append_page(1, 0, &[0; 100]).unwrap();
        b.append_page(2, 0, &[0; 50]).unwrap();
        assert_eq!(b.total_bytes(), 150);
    }
}
