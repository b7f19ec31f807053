//! Storage backends: where pages physically live.
//!
//! A backend stores immutable *runs* (sorted arrays in the paper's terms) as
//! sequences of fixed-size pages. Runs are written once, page-append-only,
//! then sealed; afterwards pages can be read randomly. This mirrors the
//! LSM-tree contract: "the runs at Level 1 and higher are immutable" (§2).

use crate::aligned::PoolStats;
use crate::direct::{discover_alignment, EINVAL};
use crate::error::{Result, StorageError};
use crate::fs::Fs;
use crate::handles::RunHandles;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

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

    /// Makes the set of runs durable: a run sealed or deleted before this
    /// returns is, or is not, in the backend after a crash. Nothing to do
    /// for a backend with no directory.
    fn sync_dir(&self) -> Result<()> {
        Ok(())
    }

    /// Reads one page of a sealed (or in-construction) run.
    fn read_page(&self, run: RunId, page_no: u32) -> Result<Bytes>;

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

/// One file per run in a directory, named `<id>.run`, every descriptor
/// held by a [`RunHandles`] table and every page read into a frame of its
/// pool. Files are created, written, sealed, listed and deleted through an
/// [`Fs`]. Opened two ways over the same layout, so a directory written one
/// way reads back the other: [`open`](Self::open) goes through the OS page
/// cache, [`open_direct`](Self::open_direct) opens each file `O_DIRECT` at
/// the alignment the directory's filesystem was probed to accept.
pub struct FileBackend {
    page_size: usize,
    /// Granularity `O_DIRECT` holds buffer, length and offset to; 1 through
    /// the page cache, which holds them to nothing.
    align: usize,
    pub(crate) handles: RunHandles,
}

impl FileBackend {
    /// Opens (creating if needed) a buffered backend rooted at `dir` on
    /// `fs`, with the given page size. Existing `.run` files become visible
    /// via [`Backend::list`].
    pub fn open(fs: Arc<dyn Fs>, dir: impl Into<PathBuf>, page_size: usize) -> Result<Self> {
        let dir = dir.into();
        fs.create_dir(&dir)?;
        Ok(Self {
            page_size,
            align: 1,
            handles: RunHandles::new(fs, dir, page_size, false, 1),
        })
    }

    /// Opens an `O_DIRECT` backend at `dir`, discovering the filesystem's
    /// alignment. `Err(reason)` in the inner result means "unsupported
    /// here" — the caller should fall back to [`open`](Self::open) and
    /// surface the reason; hard I/O errors come back as the outer error.
    pub fn open_direct(
        fs: Arc<dyn Fs>,
        dir: impl Into<PathBuf>,
        page_size: usize,
    ) -> Result<std::result::Result<Self, String>> {
        let dir = dir.into();
        fs.create_dir(&dir)?;
        let align = match discover_alignment(&*fs, &dir) {
            Ok(align) => align,
            Err(reason) => return Ok(Err(reason)),
        };
        if !page_size.is_multiple_of(align) {
            return Ok(Err(format!(
                "page size {page_size} is not a multiple of the device alignment {align}"
            )));
        }
        Ok(Ok(Self {
            page_size,
            align,
            handles: RunHandles::new(fs, dir, page_size, true, align.max(4096)),
        }))
    }

    /// The logical-block alignment transfers respect: what the probe
    /// discovered, or 1 through the page cache.
    pub fn align(&self) -> usize {
        self.align
    }

    pub(crate) fn is_direct(&self) -> bool {
        self.align > 1
    }

    fn offset(&self, page_no: u32) -> u64 {
        page_no as u64 * self.page_size as u64
    }
}

impl Backend for FileBackend {
    fn append_page(&self, run: RunId, page_no: u32, data: &[u8]) -> Result<()> {
        self.append_pages(run, page_no, data, self.page_size)
    }

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
        let fs = self.handles.fs();
        if !self.is_direct() {
            // One positional write for the whole extent.
            fs.write_at(&handle.file, self.offset(first_page), data)?;
            return Ok(());
        }
        // `O_DIRECT` demands an aligned source and the caller's extent has
        // no alignment guarantee: each page bounces through a frame.
        let mut frame = self.handles.frames().acquire();
        for (page_no, page) in (first_page..).zip(data.chunks(page_size)) {
            frame.as_mut_slice().copy_from_slice(page);
            match fs.write_at(&handle.file, self.offset(page_no), frame.as_ref()) {
                // The filesystem reneging on the probe: through the page
                // cache instead of failing the flush.
                Err(e) if e.raw_os_error() == Some(EINVAL) => {
                    let buffered = fs.open(&self.handles.path(run), false)?;
                    fs.write_at(&buffered, self.offset(page_no), page)?
                }
                other => other?,
            }
        }
        Ok(())
    }

    /// The durability barrier. `O_DIRECT` already put the data on the
    /// device; there the sync makes the file's length durable.
    fn seal(&self, run: RunId) -> Result<()> {
        self.handles.seal(run)
    }

    fn sync_dir(&self) -> Result<()> {
        self.handles.sync_dir()
    }

    fn read_page(&self, run: RunId, page_no: u32) -> Result<Bytes> {
        let handle = self.handles.get(run)?;
        handle.check_page(run, page_no)?;
        // One positional read into a frame from the pool: no page-sized
        // allocation, zeroing or copy once the pool is warm.
        let mut frame = self.handles.frames().acquire();
        match handle.read_page(page_no, frame.as_mut_slice()) {
            // As for appends. By path, so a run deleted since the lookup is
            // `NotFound` here, as it is to every later read.
            Err(e) if self.is_direct() && e.raw_os_error() == Some(EINVAL) => {
                (self.handles.fs().open(&self.handles.path(run), false))
                    .map_err(|e| RunHandles::not_found(run, e))?
                    .read_exact_at(frame.as_mut_slice(), self.offset(page_no))?
            }
            other => other?,
        }
        Ok(frame.freeze(self.page_size))
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
    use crate::OsFs;

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
        let backend = FileBackend::open(Arc::new(OsFs), &dir, 64).unwrap();
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
        let b = FileBackend::open(Arc::new(OsFs), &dir, 64).unwrap();
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
            let b = FileBackend::open(Arc::new(OsFs), &dir, 32).unwrap();
            b.append_page(42, 0, &[7u8; 32]).unwrap();
            b.seal(42).unwrap();
        }
        let b = FileBackend::open(Arc::new(OsFs), &dir, 32).unwrap();
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
