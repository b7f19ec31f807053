//! The run store: where pages physically live.
//!
//! A [`FileBackend`] stores immutable *runs* (sorted arrays in the paper's
//! terms) as sequences of fixed-size pages, one file per run. Runs are
//! written once, in extents appended in order, then sealed; afterwards
//! pages can be read randomly. This mirrors the LSM-tree contract: "the
//! runs at Level 1 and higher are immutable" (§2). The files live on an
//! [`Fs`]: the operating system's for a durable store, memory for a
//! volatile one — the same code counts and serves the pages of both.

use crate::aligned::PoolStats;
use crate::direct::{discover_alignment, EINVAL};
use crate::error::{Result, StorageError};
use crate::fs::Fs;
use crate::handles::RunHandles;
use bytes::Bytes;
use std::path::PathBuf;
use std::sync::Arc;

/// Identifier of a run within a backend. Monotonically increasing; never
/// reused, so stale ids fail loudly instead of aliasing new data.
pub type RunId = u64;

/// One file per run in a directory, named `<id>.run`, every open file held
/// by a [`RunHandles`] table and every page read into a frame of its pool.
/// Files are created, written, read, sealed, listed and deleted through an
/// [`Fs`]. Opened two ways over the same layout, so a directory written one
/// way reads back the other: [`open`](Self::open) goes through the OS page
/// cache (or memory), [`open_direct`](Self::open_direct) opens each file
/// `O_DIRECT` at the alignment the directory's filesystem was probed to
/// accept.
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
    /// via [`list`](Self::list).
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
        let fs = self.handles.fs();
        if !self.is_direct() {
            // One positional write for the whole extent.
            fs.write_at(&handle.file, self.offset(first_page), data)?;
            return Ok(());
        }
        // `O_DIRECT` demands an aligned source and the caller's extent has
        // no alignment guarantee: each page bounces through a frame.
        let mut frame = self.handles.frames().acquire();
        for (page_no, page) in (first_page..).zip(data.chunks(self.page_size)) {
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

    /// Seals a run: no further appends, and its data durable. `O_DIRECT`
    /// already put the data on the device; there the sync makes the file's
    /// length durable.
    pub fn seal(&self, run: RunId) -> Result<()> {
        self.handles.seal(run)
    }

    /// Makes the set of runs durable: a run sealed or deleted before this
    /// returns is, or is not, in the directory after a crash.
    pub fn sync_dir(&self) -> Result<()> {
        self.handles.sync_dir()
    }

    /// Reads one page of a sealed (or in-construction) run into a frame of
    /// the pool: one positional read, and no page-sized allocation, zeroing
    /// or copy besides once the pool is warm.
    pub fn read_page(&self, run: RunId, page_no: u32) -> Result<Bytes> {
        let handle = self.handles.get(run)?;
        if page_no >= self.handles.pages(&handle)? {
            let page = Some(page_no);
            return Err(StorageError::NotFound { run, page });
        }
        let (fs, offset) = (self.handles.fs(), self.offset(page_no));
        let mut frame = self.handles.frames().acquire();
        match fs.read_at(&handle.file, offset, frame.as_mut_slice()) {
            // As for appends. By path, so a run deleted since the lookup is
            // `NotFound` here, as it is to every later read.
            Err(e) if self.is_direct() && e.raw_os_error() == Some(EINVAL) => {
                let path = self.handles.path(run);
                let buffered = fs.open(&path, false);
                let buffered = buffered.map_err(|e| RunHandles::not_found(run, e))?;
                fs.read_at(&buffered, offset, frame.as_mut_slice())?
            }
            other => other?,
        }
        Ok(frame.freeze(self.page_size))
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
